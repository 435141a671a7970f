#include "rng.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace smtflex {

namespace {

/** SplitMix64 step, used only to expand seeds into xoshiro state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // Mix the stream id into the seed expansion so that (seed, 0) and
    // (seed, 1) are unrelated sequences.
    std::uint64_t x = seed ^ (stream * 0xda942042e4dd58b5ULL + 0x9e3779b9ULL);
    for (auto &word : s_)
        word = splitMix64(x);
    // xoshiro must not be seeded with the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::int64_t
Rng::nextInt(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(
        nextRange(static_cast<std::uint64_t>(hi - lo) + 1));
}

// Support {1, 2, ...}: success probability p = 1/mean, log1p(-p) is the
// inverse CDF's divisor.
Rng::Geometric::Geometric(double mean)
    : mean(mean), logQ(std::log1p(-(1.0 / mean)))
{
    // threshold[j]: the draw at which k = j + 1 begins (j >= 1).
    const auto threshold = [this](std::uint32_t j) {
        const long double t =
            (1.0L - std::exp(static_cast<long double>(j) * logQ)) *
            0x1.0p53L;
        return static_cast<std::int64_t>(std::floor(t));
    };
    safeLo[0] = safeHi[0] = 0; // unused: k starts at 1
    safeLo[1] = 0;
    for (std::uint32_t k = 1; k <= kTableMax; ++k) {
        // Strictly more than kGuard steps inside both thresholds (floor
        // rounds each threshold down by less than one step).
        const std::int64_t upper = threshold(k);
        safeHi[k] = upper - kGuard - 1;
        if (k < kTableMax)
            safeLo[k + 1] = upper + kGuard + 1;
    }
    safeLo[kTableMax + 1] = std::numeric_limits<std::int64_t>::max();
    safeHi[kTableMax + 1] = std::numeric_limits<std::int64_t>::max();
}

std::uint32_t
Rng::Geometric::inverseCdf(std::uint64_t x) const
{
    const double u = static_cast<double>(x) * 0x1.0p-53;
    // Inverse CDF; u == 0 maps to 1.
    const double v = std::log1p(-u) / logQ;
    double k = std::floor(v) + 1.0;
    if (k < 1.0)
        k = 1.0;
    if (k > 4096.0)
        k = 4096.0; // clamp pathological tails, keeps models bounded
    return static_cast<std::uint32_t>(k);
}

double
Rng::nextGaussian()
{
    // Box-Muller; draw until the radius is usable.
    double u1 = nextDouble();
    while (u1 <= 1e-300)
        u1 = nextDouble();
    const double u2 = nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double
Rng::nextLognormal(double mean, double cv)
{
    assert(mean > 0.0);
    if (cv <= 0.0)
        return mean;
    const double sigma2 = std::log1p(cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(mu + std::sqrt(sigma2) * nextGaussian());
}

} // namespace smtflex
