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
#include "study/design_space.h"
#include "study/figures.h"
#include "workload/distributions.h"

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
        const auto points =
            distributionPoints(eng, paperDesigns(), dist, het);
        for (const DistributionPoint &p : points)
            std::printf("  %-6s %8.3f\n", p.design.c_str(), p.stp);
        const DistributionPoint &best =
            points[bestOf(points, &DistributionPoint::stp)];
        std::printf("  best: %s; 4B at %.1f%% of best (paper: within "
                    "~0.4-0.8%%)\n\n",
                    best.design.c_str(),
                    100.0 * byDesign(points, "4B").stp / best.stp);
    }

    // PARSEC ROI-only and whole-program at 16 GB/s.
    for (const bool roi : {true, false}) {
        std::printf("(PARSEC, %s, SMT)\n", roi ? "ROI only"
                                               : "whole program");
        const auto speedups = parsecSpeedups(
            eng, paperConfigs({"4B", "8m", "20s", "1B6m", "1B15s"}), roi);
        for (const ParsecSpeedups &s : speedups)
            std::printf("  %-6s %8.3f\n", s.design.c_str(), s.mean);
        std::printf("  best: %s\n\n",
                    speedups[bestOf(speedups, &ParsecSpeedups::mean)]
                        .design.c_str());
    }
    return 0;
}
