/**
 * @file
 * Figure 3: normalised throughput (STP) of the nine multi-core designs as a
 * function of active thread count (1..24), SMT enabled everywhere —
 * (a) homogeneous and (b) heterogeneous multi-program workloads.
 *
 * Expected shape: 4B is best at low thread counts and only slightly below
 * the many-small-core designs at high counts.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 3", "STP vs thread count, nine designs, SMT "
                                  "in all cores");
    benchutil::printOptions(eng.options());
    const DesignGrid grids[] = {
        designGrid(eng, paperDesigns(), eng.sweepThreadCounts(), false),
        designGrid(eng, paperDesigns(), eng.sweepThreadCounts(), true)};
    for (const bool het : {false, true}) {
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        benchutil::printGrid(grids[het], &RunMetrics::stp, 3);
        std::printf("\n");
    }

    // Headline comparison at 24 threads (paper: 4B within ~11.6% of the
    // best for homogeneous, ~7.1% for heterogeneous workloads).
    for (const bool het : {false, true}) {
        const DesignGrid &grid = grids[het];
        const auto &row = grid.rows[grid.row(24)];
        const std::size_t best = bestOf(row, &RunMetrics::stp);
        const double v4b = grid.at(24, "4B").stp;
        std::printf("24 threads, %s: best=%s (%.3f), 4B=%.3f (%.1f%% below "
                    "best)\n",
                    het ? "heterogeneous" : "homogeneous",
                    grid.designs[best].c_str(), row[best].stp, v4b,
                    100.0 * (row[best].stp - v4b) / row[best].stp);
    }
    return 0;
}
