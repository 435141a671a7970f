/**
 * @file
 * Figure 10: (a) the datacenter active-thread distribution (Barroso &
 * Holzle adapted to 24 threads) and (b) average STP under the datacenter
 * and mirrored-datacenter distributions, heterogeneous workload mixes,
 * with and without SMT.
 *
 * Paper Finding #6: datacenter (skewed to few threads) -> 1B6m best
 * without SMT, 4B best with SMT. Mirrored -> 1B15s best without SMT; with
 * SMT 3B2m edges out 4B by ~0.6%.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "workload/distributions.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 10", "Datacenter thread-count distributions");
    benchutil::printOptions(eng.options());

    const auto dc = datacenterThreadCounts(eng.options().maxThreads);
    const auto mirrored = dc.mirrored();

    std::printf("(a) datacenter distribution\n");
    std::printf("%-8s %12s %12s\n", "threads", "datacenter", "mirrored");
    for (std::size_t n = 1; n <= dc.size(); ++n)
        std::printf("%-8zu %12.4f %12.4f\n", n, dc.probability(n),
                    mirrored.probability(n));
    std::printf("\n(b) average STP, heterogeneous workload mixes\n");

    struct Scenario
    {
        const char *label;
        const DiscreteDistribution *dist;
        bool smt;
        const char *paper_best;
    };
    const Scenario scenarios[] = {
        {"datacenter, no SMT", &dc, false, "1B6m"},
        {"datacenter, SMT", &dc, true, "4B"},
        {"mirrored, no SMT", &mirrored, false, "1B15s"},
        {"mirrored, SMT", &mirrored, true, "3B2m (4B within 0.6%)"},
    };
    for (const auto &s : scenarios) {
        std::printf("%s:\n", s.label);
        const auto points = distributionPoints(
            eng, paperConfigs(paperDesignNames(), s.smt), *s.dist, true);
        for (const DistributionPoint &p : points)
            std::printf("  %-6s %8.3f\n", p.design.c_str(), p.stp);
        std::printf("  best: %s (paper: %s)\n\n",
                    points[bestOf(points, &DistributionPoint::stp)]
                        .design.c_str(),
                    s.paper_best);
    }
    return 0;
}
