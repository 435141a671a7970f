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

    /**
     * A geometric distribution over {1, 2, ...} (mean >= 1), prepared
     * once for drawing many values at one mean (see nextGeometric).
     *
     * A value is a pure function of one 53-bit draw x = next() >> 11: the
     * inverse CDF k = floor(log1p(-x 2^-53) / log1p(-1/mean)) + 1, clamped
     * to [1, 4096]. Value k begins at the draw (1 - e^{(k-1) logQ}) 2^53.
     * The table holds these thresholds, computed in long double, for the
     * values 2 to kTableMax + 1, and answers the values 1 to kTableMax: a
     * draw more than kGuard steps from every threshold takes the table's
     * k with no logarithm. The closed-form thresholds lie a step or two
     * from the formula's true boundaries (RngTest checks every profile's
     * mean), so the table never disagrees with it. Any other draw goes
     * through the formula itself.
     */
    struct Geometric
    {
        explicit Geometric(double mean);

        /** The value for the 53-bit draw @p x. */
        std::uint32_t at(std::uint64_t x) const
        {
            const auto sx = static_cast<std::int64_t>(x);
            std::uint32_t k = 1;
            while (sx > safeHi[k])
                ++k;
            return sx >= safeLo[k] ? k : inverseCdf(x);
        }

        /** The inverse CDF evaluated with the logarithm (any draw). */
        std::uint32_t inverseCdf(std::uint64_t x) const;

        static constexpr std::uint32_t kTableMax = 64;
        static constexpr std::int64_t kGuard = std::int64_t{1} << 20;

        double mean;
        /** log1p(-1/mean); unused when mean == 1. */
        double logQ;
        /** Draws in [safeLo[k], safeHi[k]] give k (empty where two
         * thresholds lie closer than 2 kGuard); entry kTableMax + 1 is a
         * sentinel that sends every draw past the table to the formula. */
        std::int64_t safeLo[kTableMax + 2];
        std::int64_t safeHi[kTableMax + 2];
    };

    /**
     * Geometric distribution over {1, 2, ...} with given mean (mean >= 1).
     * Used for dependency distances and basic-block lengths. Takes one
     * next() unless the mean is 1.
     */
    std::uint32_t nextGeometric(const Geometric &dist)
    {
        assert(dist.mean >= 1.0);
        if (dist.mean == 1.0)
            return 1;
        return dist.at(next() >> 11);
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
