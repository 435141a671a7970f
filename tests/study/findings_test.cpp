/**
 * @file
 * The paper's eleven findings (EXPERIMENTS.md, "Summary of the paper's
 * findings") as one table of contracts, replayed from a private copy of
 * the committed seed cache through study/figures.h.
 *
 * Each row reduces one finding to one number read off its figure: the
 * measured value, pinned at the precision EXPERIMENTS.md prints; the
 * paper's value where the paper gives one; and the paper's direction, the
 * side of a neutral point (4B level with the best design, no gain, ...)
 * the finding puts that number on. `holds` pins whether ours lands on
 * the paper's side. A known deviation is thus a number that cannot drift
 * unnoticed, and a model change that moves a finding fails here until
 * EXPERIMENTS.md moves with it. Nothing is simulated: the cache must end
 * the test holding exactly the records it started with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "study/design_space.h"
#include "study/figures.h"
#include "study/study_engine.h"
#include "tests/common/seed_cache.h"
#include "workload/distributions.h"

namespace smtflex {
namespace {

#ifdef SMTFLEX_SOURCE_DIR

/** The two engines the figures read: the 8 GB/s study and Fig. 17's
 * 16 GB/s variant, both over the seed cache. */
struct Study
{
    StudyEngine &base;
    StudyEngine &wideBus;
};

/** Where the paper's finding puts a row's number relative to `neutral`. */
enum class Side
{
    kAbove,
    kAtLeast,
    kBelow,
};

bool
onSide(double value, double neutral, Side side)
{
    switch (side) {
      case Side::kAbove:
        return value > neutral;
      case Side::kAtLeast:
        return value >= neutral;
      case Side::kBelow:
        return value < neutral;
    }
    return false;
}

constexpr double kDirectionOnly = std::numeric_limits<double>::quiet_NaN();

struct Finding
{
    int number;           ///< the paper's finding
    const char *figure;
    const char *quantity; ///< what the number is
    double measured;      ///< pinned at EXPERIMENTS.md's precision
    int decimals;         ///< that precision
    double paper;         ///< kDirectionOnly when the paper gives no value
    double neutral;
    Side side;  ///< the paper's direction: the number vs `neutral`
    bool holds; ///< ours lies on the paper's side
    std::function<double(Study &)> measure;
};

const std::vector<std::string> kHomogeneous = {"4B", "8m", "20s"};
const std::vector<std::string> kHeterogeneous = {"3B2m",  "3B5s", "2B4m",
                                                 "2B10s", "1B6m", "1B15s"};
const std::vector<std::string> kParsecDesigns = {"4B", "8m", "20s", "1B6m",
                                                 "1B15s"};

DiscreteDistribution
uniform(const StudyEngine &engine)
{
    return uniformThreadCounts(engine.options().maxThreads);
}

const DistributionPoint &
best(const std::vector<DistributionPoint> &points)
{
    return points[bestOf(points, &DistributionPoint::stp)];
}

/** 4B's share of the best design's STP (%). */
double
shareOfBest(const std::vector<DistributionPoint> &points)
{
    return 100.0 * byDesign(points, "4B").stp / best(points).stp;
}

/** How far 4B falls below the best design at @p n threads (%). */
double
gapAt(Study &s, std::uint32_t n, bool het)
{
    const DesignGrid grid = designGrid(s.base, paperDesigns(), {n}, het);
    const auto &row = grid.rows[0];
    const double top = row[bestOf(row, &RunMetrics::stp)].stp;
    return 100.0 * (top - grid.at(n, "4B").stp) / top;
}

/** The best design's uniform STP over the best homogeneous design's,
 * SMT off everywhere (Fig. 6). */
double
noSmtWinnerOverHomogeneous(Study &s, bool het)
{
    const auto all = distributionPoints(
        s.base, paperConfigs(paperDesignNames(), false), uniform(s.base),
        het);
    const auto homogeneous = distributionPoints(
        s.base, paperConfigs(kHomogeneous, false), uniform(s.base), het);
    return best(all).stp / best(homogeneous).stp;
}

/** 4B with SMT over the best heterogeneous design without (Fig. 7). */
double
smt4BOverNoSmtHeterogeneous(Study &s, bool het)
{
    const auto v4b =
        distributionPoints(s.base, {paperDesign("4B")}, uniform(s.base), het);
    const auto rest = distributionPoints(
        s.base, paperConfigs(kHeterogeneous, false), uniform(s.base), het);
    return v4b[0].stp / best(rest).stp;
}

/** Cores of the best heterogeneous design with SMT minus without (Figs.
 * 6 and 8): negative when SMT shifts the optimum to fewer, larger cores. */
double
optimumCoreShift(Study &s, bool het)
{
    const auto cores = [&](bool smt) {
        const auto points = distributionPoints(
            s.base, paperConfigs(kHeterogeneous, smt), uniform(s.base), het);
        return static_cast<double>(
            paperDesign(best(points).design).numCores());
    };
    return cores(true) - cores(false);
}

/** 4B's share of the best design under the datacenter distribution or its
 * mirror, heterogeneous mixes, SMT everywhere (Fig. 10, %). */
double
datacenterShare(Study &s, bool mirrored)
{
    const auto dc = datacenterThreadCounts(s.base.options().maxThreads);
    return shareOfBest(distributionPoints(
        s.base, paperDesigns(), mirrored ? dc.mirrored() : dc, true));
}

/** 4B+SMT over the ideal no-SMT dynamic multi-core at 24 threads
 * (Fig. 13). */
double
smt4BOverNoSmtDynamic(Study &s, bool het)
{
    const DesignGrid smt = designGrid(s.base, {paperDesign("4B")}, {24}, het);
    const DesignGrid dynamic = dynamicEnvelope(designGrid(
        s.base, paperConfigs(paperDesignNames(), false), {24}, het));
    return smt.rows[0][0].stp / dynamic.rows[0][0].stp;
}

/** How much lower the minimum-EDP design's EDP is than 4B's (Fig. 15, %). */
double
edpEdge(Study &s, bool het)
{
    const auto points =
        distributionPoints(s.base, paperDesigns(), uniform(s.base), het);
    const double edp_4b = byDesign(points, "4B").edp;
    return 100.0 *
        (edp_4b - points[bestOf(points, &DistributionPoint::minEdp)].edp) /
        edp_4b;
}

/** 20s's uniform STP at 16 GB/s over 8 GB/s (Figs. 8 and 17). */
double
wideBusGain20s(Study &s, bool het)
{
    const auto at = [&](StudyEngine &engine) {
        return distributionPoints(engine, {paperDesign("20s")},
                                  uniform(engine), het)[0]
            .stp;
    };
    return at(s.wideBus) / at(s.base);
}

const std::vector<Finding> &
findings()
{
    static const std::vector<Finding> table = {
        {1, "Fig. 3", "4B's share of the best design's STP, lowest over "
         "1-4 threads and both workload classes (%)",
         100.0, 1, 100.0, 100.0, Side::kAtLeast, true,
         [](Study &s) {
             double lowest = 100.0;
             for (const bool het : {false, true}) {
                 for (const std::uint32_t n : {1u, 2u, 3u, 4u})
                     lowest = std::min(lowest, 100.0 - gapAt(s, n, het));
             }
             return lowest;
         }},
        {1, "Fig. 3", "4B below the best design at 24 threads, "
         "homogeneous (%)",
         22.0, 1, 11.6, 0.0, Side::kAbove, true,
         [](Study &s) { return gapAt(s, 24, false); }},
        {1, "Fig. 3", "4B below the best design at 24 threads, "
         "heterogeneous (%)",
         33.9, 1, 7.1, 0.0, Side::kAbove, true,
         [](Study &s) { return gapAt(s, 24, true); }},
        {2, "Fig. 6", "best design over the best homogeneous design, no "
         "SMT, uniform, homogeneous (STP ratio)",
         1.190, 3, kDirectionOnly, 1.0, Side::kAbove, true,
         [](Study &s) { return noSmtWinnerOverHomogeneous(s, false); }},
        {2, "Fig. 6", "best design over the best homogeneous design, no "
         "SMT, uniform, heterogeneous (STP ratio)",
         1.130, 3, kDirectionOnly, 1.0, Side::kAbove, true,
         [](Study &s) { return noSmtWinnerOverHomogeneous(s, true); }},
        {3, "Fig. 7", "4B+SMT over the best no-SMT heterogeneous design, "
         "uniform, homogeneous (STP ratio)",
         1.085, 3, kDirectionOnly, 1.0, Side::kAbove, true,
         [](Study &s) { return smt4BOverNoSmtHeterogeneous(s, false); }},
        {3, "Fig. 7", "4B+SMT over the best no-SMT heterogeneous design, "
         "uniform, heterogeneous (STP ratio)",
         0.923, 3, kDirectionOnly, 1.0, Side::kAbove, false,
         [](Study &s) { return smt4BOverNoSmtHeterogeneous(s, true); }},
        {4, "Fig. 8", "4B's share of the best design, SMT everywhere, "
         "uniform, homogeneous (%)",
         96.9, 1, 99.4, 100.0, Side::kBelow, true,
         [](Study &s) {
             return shareOfBest(distributionPoints(
                 s.base, paperDesigns(), uniform(s.base), false));
         }},
        {4, "Fig. 8", "4B's share of the best design, SMT everywhere, "
         "uniform, heterogeneous (%)",
         85.8, 1, 99.4, 100.0, Side::kBelow, true,
         [](Study &s) {
             return shareOfBest(distributionPoints(
                 s.base, paperDesigns(), uniform(s.base), true));
         }},
        {5, "Figs. 6/8", "cores of the best heterogeneous design with SMT "
         "minus without, homogeneous",
         -4.0, 0, -1.0, 0.0, Side::kBelow, true,
         [](Study &s) { return optimumCoreShift(s, false); }},
        {5, "Figs. 6/8", "cores of the best heterogeneous design with SMT "
         "minus without, heterogeneous",
         0.0, 0, -3.0, 0.0, Side::kBelow, false,
         [](Study &s) { return optimumCoreShift(s, true); }},
        {6, "Fig. 10", "4B's share of the best design, datacenter "
         "distribution, SMT (%)",
         91.3, 1, 100.0, 100.0, Side::kAtLeast, false,
         [](Study &s) { return datacenterShare(s, false); }},
        {6, "Fig. 10", "4B's share of the best design, mirrored "
         "datacenter distribution, SMT (%)",
         80.3, 1, 99.4, 100.0, Side::kBelow, true,
         [](Study &s) { return datacenterShare(s, true); }},
        {7, "Fig. 11", "8m's mean PARSEC ROI speedup over 4B's, no SMT "
         "(ratio)",
         0.680, 3, kDirectionOnly, 1.0, Side::kAbove, false,
         [](Study &s) {
             const auto speedups = parsecSpeedups(
                 s.base, paperConfigs(kParsecDesigns, false), true);
             return byDesign(speedups, "8m").mean /
                 byDesign(speedups, "4B").mean;
         }},
        {7, "Fig. 11", "4B's mean PARSEC whole-program speedup over the "
         "best other design's, lower of no SMT and SMT (ratio)",
         1.292, 3, kDirectionOnly, 1.0, Side::kAbove, true,
         [](Study &s) {
             double lowest = std::numeric_limits<double>::infinity();
             for (const bool smt : {false, true}) {
                 const auto speedups = parsecSpeedups(
                     s.base, paperConfigs(kParsecDesigns, smt), false);
                 const auto &rival = speedups[bestOf(
                     speedups, [](const ParsecSpeedups &p) {
                         return p.design == "4B" ? 0.0 : p.mean;
                     })];
                 lowest = std::min(
                     lowest, byDesign(speedups, "4B").mean / rival.mean);
             }
             return lowest;
         }},
        {8, "Fig. 13", "4B+SMT over the no-SMT dynamic multi-core at 24 "
         "threads, homogeneous (STP ratio)",
         0.891, 3, kDirectionOnly, 1.0, Side::kAtLeast, false,
         [](Study &s) { return smt4BOverNoSmtDynamic(s, false); }},
        {8, "Fig. 13", "4B+SMT over the no-SMT dynamic multi-core at 24 "
         "threads, heterogeneous (STP ratio)",
         0.757, 3, kDirectionOnly, 1.0, Side::kAtLeast, false,
         [](Study &s) { return smt4BOverNoSmtDynamic(s, true); }},
        {9, "Fig. 15", "minimum-EDP design's EDP below 4B's, homogeneous "
         "(%)",
         11.4, 1, 4.1, 0.0, Side::kAbove, true,
         [](Study &s) { return edpEdge(s, false); }},
        {9, "Fig. 15", "minimum-EDP design's EDP below 4B's, "
         "heterogeneous (%)",
         34.0, 1, 1.8, 0.0, Side::kAbove, true,
         [](Study &s) { return edpEdge(s, true); }},
        {10, "Fig. 16", "4B's mean PARSEC ROI speedup over the best "
         "Section 8.1 variant's (ratio)",
         1.245, 3, kDirectionOnly, 1.0, Side::kAbove, true,
         [](Study &s) {
             std::vector<ChipConfig> variants;
             for (const auto &name : alternativeDesignNames())
                 variants.push_back(alternativeDesign(name));
             const auto speedups = parsecSpeedups(s.base, variants, true);
             const double v4b =
                 parsecSpeedups(s.base, {paperDesign("4B")}, true)[0].mean;
             return v4b /
                 speedups[bestOf(speedups, &ParsecSpeedups::mean)].mean;
         }},
        {11, "Fig. 17", "20s's uniform STP at 16 GB/s over 8 GB/s, "
         "homogeneous (ratio)",
         0.995, 3, kDirectionOnly, 1.0, Side::kAbove, false,
         [](Study &s) { return wideBusGain20s(s, false); }},
        {11, "Fig. 17", "20s's uniform STP at 16 GB/s over 8 GB/s, "
         "heterogeneous (ratio)",
         0.993, 3, kDirectionOnly, 1.0, Side::kAbove, false,
         [](Study &s) { return wideBusGain20s(s, true); }},
    };
    return table;
}

TEST(FindingsTest, ElevenFindingsReplayFromSeedCache)
{
    StudyOptions options; // the seed cache's identity: defaults
    options.cachePath = seedCacheCopy("smtflex_findings_cache");
    StudyOptions wide_options = options;
    wide_options.bandwidthGBps = 16.0;
    StudyEngine base(options);
    StudyEngine wide_bus(wide_options);
    const std::size_t seeded = base.resultCache().size();
    ASSERT_GT(seeded, std::size_t{0});
    Study study{base, wide_bus};

    std::set<int> covered;
    for (const Finding &f : findings()) {
        SCOPED_TRACE("Finding #" + std::to_string(f.number) + " (" +
                     f.figure + "): " + f.quantity);
        covered.insert(f.number);
        const double value = f.measure(study);
        EXPECT_NEAR(value, f.measured, 0.5 * std::pow(10.0, -f.decimals));
        EXPECT_EQ(onSide(value, f.neutral, f.side), f.holds) << value;
        // A row states the paper's direction correctly when the paper's
        // own value lies on that side.
        if (!std::isnan(f.paper)) {
            EXPECT_TRUE(onSide(f.paper, f.neutral, f.side)) << f.paper;
        }
    }
    EXPECT_EQ(covered.size(), 11u);
    EXPECT_EQ(*covered.begin(), 1);
    EXPECT_EQ(*covered.rbegin(), 11);

    // Every record the findings read was in the seed cache.
    EXPECT_EQ(base.resultCache().size(), seeded);
    EXPECT_EQ(wide_bus.resultCache().size(), seeded);
    removeTestTempFiles(options.cachePath);
}

#endif // SMTFLEX_SOURCE_DIR

} // namespace
} // namespace smtflex
