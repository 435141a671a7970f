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
#include "exec/parallel.h"
#include "study/design_space.h"
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
        const std::vector<double> scores =
            exec::mapItems(paperDesignNames(), [&](const auto &name) {
                return eng.distributionStp(paperDesign(name).withSmt(false),
                                           dist, het);
            });
        for (std::size_t i = 0; i < scores.size(); ++i)
            std::printf("  %-6s %8.3f\n", paperDesignNames()[i].c_str(),
                        scores[i]);
        const std::size_t best = benchutil::argmax(scores);
        std::printf("  best without SMT: %s (paper: %s)\n\n",
                    paperDesignNames()[best].c_str(),
                    het ? "3B5s" : "2B4m");
    }
    return 0;
}
