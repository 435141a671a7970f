/**
 * @file
 * Unit and property tests for the deterministic Rng.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "trace/spec_profiles.h"
#include "workload/parsec.h"

namespace smtflex {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(RngTest, DifferentStreamsDiffer)
{
    Rng a(42, 0), b(42, 1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.nextDouble();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, NextDoubleMeanIsHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextRangeRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.nextRange(bound), bound);
    }
}

TEST(RngTest, NextRangeCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextIntInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolEdgeCases)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(RngTest, NextBoolProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanMatches)
{
    Rng rng(17);
    for (double mean : {1.0, 2.0, 3.5, 8.0}) {
        const Rng::Geometric dist(mean);
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += rng.nextGeometric(dist);
        EXPECT_NEAR(sum / n, mean, mean * 0.05) << "mean=" << mean;
    }
}

TEST(RngTest, GeometricMinimumIsOne)
{
    Rng rng(19);
    const Rng::Geometric dist(4.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(rng.nextGeometric(dist), 1u);
}

/** The geometric value of the 53-bit draw @p x as nextGeometric computed
 * it before the constant was hoisted: both log1p calls on every draw. */
std::uint32_t
perCallGeometricAt(std::uint64_t x, double mean)
{
    const double p = 1.0 / mean;
    const double u = static_cast<double>(x) * 0x1.0p-53;
    const double v = std::log1p(-u) / std::log1p(-p);
    double k = std::floor(v) + 1.0;
    if (k < 1.0)
        k = 1.0;
    if (k > 4096.0)
        k = 4096.0;
    return static_cast<std::uint32_t>(k);
}

std::uint32_t
perCallGeometric(Rng &rng, double mean)
{
    if (mean == 1.0)
        return 1;
    return perCallGeometricAt(rng.next() >> 11, mean);
}

/** Every mean the trace generators draw dependency distances at: each
 * SPEC profile and each PARSEC worker and serial kernel, plus 1. */
std::set<double>
profileMeans()
{
    std::set<double> means = {1.0};
    for (const BenchmarkProfile *profile : specAllProfiles())
        means.insert(profile->meanDepDist);
    for (const ParsecProfile *app : parsecProfiles()) {
        means.insert(app->kernel.meanDepDist);
        means.insert(app->serialKernel.meanDepDist);
    }
    return means;
}

TEST(RngTest, HoistedGeometricEqualsPerCallForm)
{
    // The threshold table must give exactly the log1p formula's values:
    // on a million random draws per mean, at the edges of every span the
    // table answers, and densely around every threshold out to twice the
    // guard distance.
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    constexpr std::int64_t kReach = 2 * Rng::Geometric::kGuard;
    constexpr std::int64_t kDense = 256; // every draw this close
    constexpr std::int64_t kStride = 512; // beyond, one draw per stride
    for (const double mean : profileMeans()) {
        const Rng::Geometric dist(mean);
        if (mean != 1.0) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.logQ),
                      std::bit_cast<std::uint64_t>(
                          std::log1p(-(1.0 / mean))))
                << "mean=" << mean;
        }
        Rng hoisted(37), per_call(37);
        int mismatches = 0;
        for (int i = 0; i < 1'000'000; ++i) {
            mismatches +=
                hoisted.nextGeometric(dist) != perCallGeometric(per_call, mean);
        }
        EXPECT_EQ(mismatches, 0) << "mean=" << mean;
        // Both consumed the same number of draws.
        EXPECT_EQ(hoisted.next(), per_call.next()) << "mean=" << mean;
        if (mean == 1.0)
            continue; // no draw, no table

        std::uint64_t checked = 0;
        const auto check = [&](std::int64_t x) {
            if (x < 0 || static_cast<std::uint64_t>(x) >= kDraws)
                return;
            const auto ux = static_cast<std::uint64_t>(x);
            ++checked;
            mismatches += dist.at(ux) != perCallGeometricAt(ux, mean);
        };
        for (std::uint32_t k = 1; k <= Rng::Geometric::kTableMax; ++k) {
            // The edges of the span the table answers for k.
            for (const std::int64_t x :
                 {dist.safeLo[k], dist.safeLo[k] + 1, dist.safeHi[k] - 1,
                  dist.safeHi[k]}) {
                check(x);
            }
            // The draw at which k + 1 begins, and its neighbourhood.
            const long double t =
                (1.0L - std::exp(static_cast<long double>(k) * dist.logQ)) *
                0x1.0p53L;
            const auto threshold = static_cast<std::int64_t>(std::floor(t));
            if (static_cast<std::uint64_t>(threshold) >= kDraws)
                continue;
            for (std::int64_t d = -kDense; d <= kDense; ++d)
                check(threshold + d);
            for (std::int64_t d = kDense + kStride; d <= kReach; d += kStride) {
                check(threshold - d);
                check(threshold + d);
            }
        }
        EXPECT_EQ(mismatches, 0) << "mean=" << mean;
        EXPECT_GT(checked, 0u) << "mean=" << mean;
    }
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(23);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, LognormalMeanAndPositivity)
{
    Rng rng(29);
    const double mean = 5.0, cv = 0.5;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextLognormal(mean, cv);
        EXPECT_GT(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.03);
}

TEST(RngTest, LognormalZeroCvIsDeterministic)
{
    Rng rng(31);
    EXPECT_DOUBLE_EQ(rng.nextLognormal(3.0, 0.0), 3.0);
}

} // namespace
} // namespace smtflex
