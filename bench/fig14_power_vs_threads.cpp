/**
 * @file
 * Figure 14: average chip power of the nine designs as a function of
 * thread count with power gating of idle cores (homogeneous workloads, SMT
 * enabled everywhere).
 *
 * Expected shape: 4B consumes the most at low counts (big cores on),
 * 20s the least; all designs converge at high counts; waking a core costs
 * more than activating another SMT context on an already-running core.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "exec/parallel.h"
#include "study/design_space.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 14",
                      "Chip power vs thread count (idle cores power gated)");
    benchutil::printOptions(eng.options());

    std::printf("%-8s", "threads");
    for (const auto &name : paperDesignNames())
        std::printf("%9s", name.c_str());
    std::printf("\n");
    // The whole (thread count x design) grid is independent runs: flatten
    // it through exec::map, then print in row order.
    const auto counts = eng.sweepThreadCounts();
    const auto &names = paperDesignNames();
    const auto grid = exec::map(counts.size() * names.size(),
                                [&](std::size_t i) {
        const std::uint32_t n = counts[i / names.size()];
        const auto &name = names[i % names.size()];
        return eng.homogeneousAt(paperDesign(name), n).powerGatedW;
    });
    for (std::size_t r = 0; r < counts.size(); ++r) {
        std::printf("%-8u", counts[r]);
        for (std::size_t c = 0; c < names.size(); ++c)
            std::printf("%9.1f", grid[r * names.size() + c]);
        std::printf("\n");
    }

    const double p1 = eng.homogeneousAt(paperDesign("4B"), 1).powerGatedW;
    const double p4 = eng.homogeneousAt(paperDesign("4B"), 4).powerGatedW;
    const double p24 = eng.homogeneousAt(paperDesign("4B"), 24).powerGatedW;
    std::printf("\n4B: %0.1fW at 1 thread, %0.1fW at 4, %0.1fW at 24 "
                "(paper: ~17.3W, 42W, 46W)\n", p1, p4, p24);
    std::printf("SMT contexts 4->24 add %.1fW; waking cores 1->4 adds "
                "%.1fW (paper: SMT adds much less than cores)\n",
                p24 - p4, p4 - p1);
    return 0;
}
