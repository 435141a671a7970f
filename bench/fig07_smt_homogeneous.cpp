/**
 * @file
 * Figure 7: average STP under the uniform thread-count distribution with
 * SMT enabled in the HOMOGENEOUS designs (4B, 8m, 20s) only; heterogeneous
 * designs run without SMT.
 *
 * Paper Finding #3: 4B with SMT outperforms every heterogeneous design
 * without SMT — SMT beats heterogeneity as the means to cope with varying
 * thread counts.
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
    benchutil::banner("Figure 7", "Uniform distribution, SMT only in the "
                                  "homogeneous designs");
    benchutil::printOptions(eng.options());

    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    std::vector<ChipConfig> designs = paperDesigns();
    for (ChipConfig &cfg : designs)
        cfg.smtEnabled = cfg.name == "4B" || cfg.name == "8m" ||
            cfg.name == "20s";

    for (const bool het : {false, true}) {
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        const auto points = distributionPoints(eng, designs, dist, het);
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::printf("  %-6s %8.3f%s\n", points[i].design.c_str(),
                        points[i].stp,
                        designs[i].smtEnabled ? "  (SMT)" : "");
        }
        std::printf("  best: %s (paper: 4B)\n\n",
                    points[bestOf(points, &DistributionPoint::stp)]
                        .design.c_str());
    }
    return 0;
}
