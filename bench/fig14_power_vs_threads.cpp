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
#include "study/design_space.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 14",
                      "Chip power vs thread count (idle cores power gated)");
    benchutil::printOptions(eng.options());

    const DesignGrid grid =
        designGrid(eng, paperDesigns(), eng.sweepThreadCounts(), false);
    benchutil::printGrid(grid, &RunMetrics::powerGatedW, 1);

    const double p1 = grid.at(1, "4B").powerGatedW;
    const double p4 = grid.at(4, "4B").powerGatedW;
    const double p24 = grid.at(24, "4B").powerGatedW;
    std::printf("\n4B: %0.1fW at 1 thread, %0.1fW at 4, %0.1fW at 24 "
                "(paper: ~17.3W, 42W, 46W)\n", p1, p4, p24);
    std::printf("SMT contexts 4->24 add %.1fW; waking cores 1->4 adds "
                "%.1fW (paper: SMT adds much less than cores)\n",
                p24 - p4, p4 - p1);
    return 0;
}
