/**
 * @file
 * Figure 5: average normalised turnaround time (ANTT, lower is better) of
 * the nine designs as a function of thread count, homogeneous workloads.
 *
 * Expected shape: 4B lowest at low thread counts (every thread gets a big
 * core); the many-small-core designs start high but grow more slowly.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 5",
                      "ANTT vs thread count, homogeneous workloads");
    benchutil::printOptions(eng.options());

    const DesignGrid grid =
        designGrid(eng, paperDesigns(), eng.sweepThreadCounts(), false);
    benchutil::printGrid(grid, &RunMetrics::antt, 2);

    std::printf("\nChecks: at 1 thread 4B has the lowest ANTT; ANTT grows "
                "with thread count for every design.\n");
    const auto &at1 = grid.rows[grid.row(1)];
    const bool lowest = bestOf(at1, [](const RunMetrics &m) {
        return -m.antt;
    }) == grid.column("4B");
    std::printf("4B lowest ANTT at 1 thread: %s\n", lowest ? "yes" : "NO");
    return 0;
}
