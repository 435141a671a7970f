/**
 * @file
 * Figure 8: average STP under the uniform thread-count distribution with
 * SMT enabled in ALL designs.
 *
 * Paper Findings #4 and #5: the added benefit of combining heterogeneity
 * and SMT is limited (best heterogeneous within ~0.6% of 4B), and the
 * optimal heterogeneous design shifts towards fewer, larger cores (3B2m).
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
    benchutil::banner("Figure 8",
                      "Uniform distribution, SMT in all designs");
    benchutil::printOptions(eng.options());

    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    for (const bool het : {false, true}) {
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        const auto points =
            distributionPoints(eng, paperDesigns(), dist, het);
        for (const DistributionPoint &p : points)
            std::printf("  %-6s %8.3f\n", p.design.c_str(), p.stp);
        const DistributionPoint &best =
            points[bestOf(points, &DistributionPoint::stp)];
        std::printf("  best: %s; 4B at %.1f%% of best (paper: best "
                    "heterogeneous ~0.5-0.6%% from 4B)\n\n",
                    best.design.c_str(),
                    100.0 * byDesign(points, "4B").stp / best.stp);
    }
    return 0;
}
