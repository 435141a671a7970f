/**
 * @file
 * Shared helpers for the figure-regeneration benches: the banner and the
 * study parameters. Every bench binary prints the rows/series of one
 * paper table or figure; the figure benches compute them through
 * study/figures.h and only format them here. Results are memoised in the
 * shared disk cache (smtflex_cache.txt by default), so the first bench to
 * run a sweep pays for it and the rest replay it; tests/golden/ holds
 * every bench's stdout as replayed from the committed seed cache.
 */

#ifndef SMTFLEX_BENCH_BENCH_UTIL_H
#define SMTFLEX_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <string>

#include "study/figures.h"

namespace smtflex {
namespace benchutil {

/** Print the standard bench banner. */
inline void
banner(const std::string &experiment, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("smtflex | %s\n", experiment.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("==============================================================\n");
}

/** Print study parameters so output is self-describing. */
inline void
printOptions(const StudyOptions &opts)
{
    std::printf("budget=%llu warmup=%llu seed=%llu mixes=%u bw=%.0fGB/s "
                "cache=%s\n\n",
                static_cast<unsigned long long>(opts.budget),
                static_cast<unsigned long long>(opts.warmup),
                static_cast<unsigned long long>(opts.seed), opts.hetMixes,
                opts.bandwidthGBps,
                opts.cachePath.empty() ? "(none)" : opts.cachePath.c_str());
}

/** Print one metric of @p grid: a header of design names, then a row of
 * cells with @p decimals decimals per thread count. */
inline void
printGrid(const DesignGrid &grid, double RunMetrics::*metric, int decimals)
{
    std::printf("%-8s", "threads");
    for (const auto &name : grid.designs)
        std::printf("%9s", name.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < grid.counts.size(); ++r) {
        std::printf("%-8u", grid.counts[r]);
        for (const RunMetrics &m : grid.rows[r])
            std::printf("%9.*f", decimals, m.*metric);
        std::printf("\n");
    }
}

} // namespace benchutil
} // namespace smtflex

#endif // SMTFLEX_BENCH_BENCH_UTIL_H
