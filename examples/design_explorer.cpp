/**
 * @file
 * Scenario: explore your own multi-core design under the paper's power
 * budget. Specify a core mix on the command line; the tool checks the
 * power envelope, runs the thread-count sweep, and compares against the
 * paper's nine designs.
 *
 * Usage: design_explorer <big> <medium> <small> [--no-smt]
 *   e.g.  design_explorer 2 2 5
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "power/power_model.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "workload/distributions.h"

using namespace smtflex;

int
main(int argc, char **argv)
{
    std::uint32_t big = 2, medium = 2, small = 5;
    bool smt = true;
    if (argc >= 4) {
        big = static_cast<std::uint32_t>(std::atoi(argv[1]));
        medium = static_cast<std::uint32_t>(std::atoi(argv[2]));
        small = static_cast<std::uint32_t>(std::atoi(argv[3]));
        if (argc > 4 && std::strcmp(argv[4], "--no-smt") == 0)
            smt = false;
    } else if (argc != 1) {
        std::fprintf(stderr,
                     "usage: %s <big> <medium> <small> [--no-smt]\n",
                     argv[0]);
        return 1;
    }

    // Build the custom chip.
    ChipConfig cfg;
    cfg.name = std::to_string(big) + "B" + std::to_string(medium) + "m" +
        std::to_string(small) + "s";
    for (std::uint32_t i = 0; i < big; ++i)
        cfg.cores.push_back(CoreParams::big());
    for (std::uint32_t i = 0; i < medium; ++i)
        cfg.cores.push_back(CoreParams::medium());
    for (std::uint32_t i = 0; i < small; ++i)
        cfg.cores.push_back(CoreParams::small());
    cfg.smtEnabled = smt;
    cfg.validate();

    // Power-envelope check against the paper's budget (4 big cores).
    PowerModel power;
    double chip_power = power.uncoreStaticW();
    for (const auto &core : cfg.cores)
        chip_power += power.coreFullLoadW(core);
    const double budget =
        4 * power.coreFullLoadW(CoreParams::big()) + power.uncoreStaticW();
    std::printf("design %s: %u cores, %u hardware threads, %.1f W full "
                "load (budget %.1f W)%s\n\n",
                cfg.name.c_str(), cfg.numCores(), cfg.totalContexts(),
                chip_power, budget,
                chip_power > budget * 1.05 ? "  ** OVER BUDGET **" : "");

    StudyEngine eng;
    std::printf("STP vs thread count (heterogeneous workload mixes):\n");
    std::printf("%-8s %10s %10s %10s\n", "threads", cfg.name.c_str(),
                "4B", "best-of-9");
    const std::uint32_t max_threads =
        std::min<std::uint32_t>(eng.options().maxThreads,
                                cfg.totalContexts());
    std::vector<std::uint32_t> counts;
    for (std::uint32_t n = 1; n <= max_threads; n += (n < 4 ? 1 : 4))
        counts.push_back(n);
    const DesignGrid grid =
        designGrid(eng, {cfg, paperDesign("4B")}, counts, true);
    const DesignGrid best =
        dynamicEnvelope(designGrid(eng, paperDesigns(), counts, true));
    for (std::size_t r = 0; r < counts.size(); ++r) {
        std::printf("%-8u %10.3f %10.3f %10.3f\n", counts[r],
                    grid.rows[r][0].stp, grid.rows[r][1].stp,
                    best.rows[r][0].stp);
    }

    const auto dist = uniformThreadCounts(max_threads);
    const auto full = uniformThreadCounts(eng.options().maxThreads);
    std::printf("\nuniform-distribution score: %.3f (4B: %.3f)\n",
                distributionPoints(eng, {cfg}, dist, true)[0].stp,
                distributionPoints(eng, {paperDesign("4B")}, full,
                                   true)[0].stp);
    return 0;
}
