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
#include "exec/parallel.h"
#include "study/design_space.h"
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
        // The nine designs are independent sweeps: fan them out across the
        // pool and print once all have landed.
        const std::vector<double> scores =
            exec::mapItems(paperDesignNames(), [&](const auto &name) {
                return eng.distributionStp(paperDesign(name), dist, het);
            });
        double v4b = 0.0;
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (paperDesignNames()[i] == "4B")
                v4b = scores[i];
            std::printf("  %-6s %8.3f\n", paperDesignNames()[i].c_str(),
                        scores[i]);
        }
        const std::size_t best = benchutil::argmax(scores);
        std::printf("  best: %s; 4B at %.1f%% of best (paper: best "
                    "heterogeneous ~0.5-0.6%% from 4B)\n\n",
                    paperDesignNames()[best].c_str(),
                    100.0 * v4b / scores[best]);
    }
    return 0;
}
