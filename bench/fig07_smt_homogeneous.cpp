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
#include "exec/parallel.h"
#include "study/design_space.h"
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
    const std::vector<std::string> homogeneous = {"4B", "8m", "20s"};

    for (const bool het : {false, true}) {
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        const std::vector<double> scores =
            exec::mapItems(paperDesignNames(), [&](const auto &name) {
                const bool smt = std::find(homogeneous.begin(),
                                           homogeneous.end(),
                                           name) != homogeneous.end();
                return eng.distributionStp(paperDesign(name).withSmt(smt),
                                           dist, het);
            });
        for (std::size_t i = 0; i < scores.size(); ++i) {
            const auto &name = paperDesignNames()[i];
            const bool smt = std::find(homogeneous.begin(),
                                       homogeneous.end(),
                                       name) != homogeneous.end();
            std::printf("  %-6s %8.3f%s\n", name.c_str(), scores[i],
                        smt ? "  (SMT)" : "");
        }
        const std::size_t best = benchutil::argmax(scores);
        std::printf("  best: %s (paper: 4B)\n\n",
                    paperDesignNames()[best].c_str());
    }
    return 0;
}
