/**
 * @file
 * The paper's headline result in one runnable program: sweep the active
 * thread count and watch the big-SMT-core chip (4B) stay near the top of
 * the envelope everywhere, while each specialised design wins only its
 * own corner.
 *
 * Usage: smt_flexibility [max_threads]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "study/design_space.h"
#include "study/figures.h"

using namespace smtflex;

int
main(int argc, char **argv)
{
    StudyEngine eng;
    std::uint32_t max_threads = eng.options().maxThreads;
    if (argc > 1)
        max_threads = static_cast<std::uint32_t>(std::atoi(argv[1]));

    const std::vector<std::string> designs = {"4B", "8m", "20s", "2B10s"};
    std::printf("STP by active thread count (homogeneous workloads):\n\n");
    std::printf("%-8s", "threads");
    for (const auto &name : designs)
        std::printf("%9s", name.c_str());
    std::printf("%10s %12s\n", "winner", "4B vs best");

    std::vector<std::uint32_t> counts;
    for (const std::uint32_t n : eng.sweepThreadCounts()) {
        if (n <= max_threads)
            counts.push_back(n);
    }
    const DesignGrid grid =
        designGrid(eng, paperConfigs(designs), counts, false);
    double worst_ratio = 1.0;
    std::uint32_t worst_n = 1;
    for (std::size_t r = 0; r < counts.size(); ++r) {
        const auto &row = grid.rows[r];
        const std::size_t best = bestOf(row, &RunMetrics::stp);
        const double ratio = row[0].stp / row[best].stp;
        if (ratio < worst_ratio) {
            worst_ratio = ratio;
            worst_n = counts[r];
        }
        std::printf("%-8u", counts[r]);
        for (const RunMetrics &m : row)
            std::printf("%9.3f", m.stp);
        std::printf("%10s %11.0f%%\n", designs[best].c_str(),
                    100.0 * ratio);
    }

    std::printf("\nThe flexibility argument: across the whole range, the "
                "homogeneous big-SMT chip never falls below %.0f%% of the "
                "best specialised design (worst case at %u threads), while "
                "20s delivers only %.0f%% of 4B's throughput at 1 "
                "thread.\n",
                100.0 * worst_ratio, worst_n,
                100.0 * eng.homogeneousAt(paperDesign("20s"), 1).stp /
                    eng.homogeneousAt(paperDesign("4B"), 1).stp);
    return 0;
}
