/**
 * @file
 * Figure 17: the headline comparisons repeated with doubled memory
 * bandwidth (16 GB/s): uniform-distribution STP for the nine designs
 * (homogeneous and heterogeneous workloads) and PARSEC average speedups.
 *
 * Paper Finding #11: all configurations gain a little; 4B stays within a
 * percent or two of the optimum.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "exec/parallel.h"
#include "common/stats.h"
#include "study/design_space.h"
#include "workload/distributions.h"
#include "workload/parsec.h"

using namespace smtflex;

int
main()
{
    StudyOptions opts = StudyOptions::fromEnv();
    opts.bandwidthGBps = 16.0;
    StudyEngine eng(opts);
    benchutil::banner("Figure 17", "16 GB/s memory bandwidth variant");
    benchutil::printOptions(eng.options());

    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    for (const bool het : {false, true}) {
        std::printf("(multi-program, %s workloads, SMT everywhere)\n",
                    het ? "heterogeneous" : "homogeneous");
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
        std::printf("  best: %s; 4B at %.1f%% of best (paper: within "
                    "~0.4-0.8%%)\n\n",
                    paperDesignNames()[best].c_str(),
                    100.0 * v4b / scores[best]);
    }

    // PARSEC ROI-only and whole-program at 16 GB/s.
    for (const bool roi : {true, false}) {
        std::printf("(PARSEC, %s, SMT)\n", roi ? "ROI only"
                                               : "whole program");
        const std::vector<std::string> configs = {"4B", "8m", "20s",
                                                  "1B6m", "1B15s"};
        const std::vector<double> scores =
            exec::mapItems(configs, [&](const auto &name) {
                std::vector<double> speedups;
                for (const auto &bench : parsecBenchmarkNames()) {
                    const ParsecMetrics base =
                        eng.parsec(paperDesign("4B"), bench, 4);
                    const double base_cycles =
                        roi ? base.roiCycles : base.totalCycles;
                    speedups.push_back(
                        base_cycles /
                        eng.bestParsecCycles(paperDesign(name), bench, roi));
                }
                return harmonicMean(speedups);
            });
        for (std::size_t i = 0; i < scores.size(); ++i)
            std::printf("  %-6s %8.3f\n", configs[i].c_str(), scores[i]);
        std::printf("  best: %s\n\n",
                    configs[benchutil::argmax(scores)].c_str());
    }
    return 0;
}
