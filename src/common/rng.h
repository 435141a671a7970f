/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic decision in smtflex (trace synthesis, workload sampling,
 * load imbalance, ...) draws from an explicitly seeded Rng so that any
 * simulation is exactly reproducible. The generator is xoshiro256**, which is
 * fast, passes BigCrush, and has a cheap jump-free substream construction via
 * SplitMix64 seeding.
 */

#ifndef SMTFLEX_COMMON_RNG_H
#define SMTFLEX_COMMON_RNG_H

#include <bit>
#include <cassert>
#include <cstdint>

namespace smtflex {

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Substreams: Rng(seed, stream) produces independent sequences for different
 * stream ids under the same seed, which smtflex uses to give every simulated
 * thread its own generator.
 */
class Rng
{
  public:
    /** Construct from a seed and an optional substream identifier. */
    explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 top bits -> [0, 1) with full double precision.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t nextRange(std::uint64_t bound)
    {
        assert(bound > 0);
        // Multiply-shift range reduction; bias is negligible for our
        // bounds (all far below 2^48) and determinism is what matters.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive (lo <= hi). */
    std::int64_t nextInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial: true with probability @p p. */
    bool nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** A geometric distribution over {1, 2, ...} with its inverse-CDF
     * constant computed once, for callers drawing many values at one
     * mean (see nextGeometric). */
    struct Geometric
    {
        explicit Geometric(double mean);
        double mean;
        /** log1p(-1/mean); unused when mean == 1. */
        double logQ;
    };

    /**
     * Geometric distribution over {1, 2, ...} with given mean (mean >= 1).
     * Used for dependency distances and basic-block lengths.
     */
    std::uint32_t nextGeometric(const Geometric &dist);
    std::uint32_t nextGeometric(double mean)
    {
        return nextGeometric(Geometric(mean));
    }

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double nextGaussian();

    /** Lognormal with E[X] = mean and coefficient-of-variation @p cv. */
    double nextLognormal(double mean, double cv);

  private:
    std::uint64_t s_[4];
};

} // namespace smtflex

#endif // SMTFLEX_COMMON_RNG_H
