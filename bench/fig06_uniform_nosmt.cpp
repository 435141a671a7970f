/**
 * @file
 * Figure 6: average STP under a uniform active-thread-count distribution
 * (1..24), with SMT disabled in every design (extra threads time-share).
 *
 * Paper Finding #2: without SMT, heterogeneous designs win (2B4m for
 * homogeneous workloads, 3B5s for heterogeneous workloads).
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
    benchutil::banner("Figure 6",
                      "Uniform thread-count distribution, no SMT anywhere");
    benchutil::printOptions(eng.options());

    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    for (const bool het : {false, true}) {
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        const auto points = distributionPoints(
            eng, paperConfigs(paperDesignNames(), false), dist, het);
        for (const DistributionPoint &p : points)
            std::printf("  %-6s %8.3f\n", p.design.c_str(), p.stp);
        std::printf("  best without SMT: %s (paper: %s)\n\n",
                    points[bestOf(points, &DistributionPoint::stp)]
                        .design.c_str(),
                    het ? "3B5s" : "2B4m");
    }
    return 0;
}
