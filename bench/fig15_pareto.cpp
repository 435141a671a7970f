/**
 * @file
 * Figure 15: power versus performance and normalised energy versus
 * performance for the nine designs under the uniform thread-count
 * distribution (heterogeneous workloads, SMT everywhere, power gating).
 *
 * Paper Finding #9: the Pareto frontier is populated by heterogeneous
 * designs plus 4B (performance end) and 20s (low-power end); the minimum-
 * EDP design (3B5s) improves EDP by only a few percent over 4B.
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
    benchutil::banner("Figure 15",
                      "Power and energy vs performance (uniform "
                      "distribution, power gating)");
    benchutil::printOptions(eng.options());

    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    for (const bool het : {true, false}) {
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        const auto points =
            distributionPoints(eng, paperDesigns(), dist, het);

        std::printf("%-8s %12s %10s %16s %12s\n", "design", "throughput",
                    "power(W)", "energy/work", "EDP");
        for (const DistributionPoint &p : points)
            std::printf("%-8s %12.3f %10.1f %16.2f %12.2f\n",
                        p.design.c_str(), p.stp, p.powerW, p.energyPerWork,
                        p.edp);

        std::printf("\nPareto-optimal (power vs performance): ");
        for (const DistributionPoint &p : points) {
            if (p.pareto)
                std::printf("%s ", p.design.c_str());
        }
        std::printf("\n");

        const DistributionPoint &best =
            points[bestOf(points, &DistributionPoint::minEdp)];
        const double edp_4b = byDesign(points, "4B").edp;
        std::printf("Minimum-EDP design: %s, improving EDP by %.1f%% over "
                    "4B (paper: 3B5s, %.1f%%)\n\n",
                    best.design.c_str(),
                    100.0 * (edp_4b - best.edp) / edp_4b, het ? 1.8 : 4.1);
    }
    return 0;
}
