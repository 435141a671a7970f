/**
 * @file
 * Shared helpers for the figure-regeneration benches: consistent headers,
 * table formatting, and the study engine construction. Every bench binary
 * prints the rows/series of one paper table or figure; results are memoised
 * in the shared disk cache (smtflex_cache.txt by default), so the first
 * bench to run a sweep pays for it and the rest replay it.
 */

#ifndef SMTFLEX_BENCH_BENCH_UTIL_H
#define SMTFLEX_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <string>
#include <vector>

#include "study/study_engine.h"

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

/** Print a table: first column label + one column per series. */
inline void
printSeriesTable(const std::string &row_label,
                 const std::vector<std::string> &series,
                 const std::vector<std::string> &row_names,
                 const std::vector<std::vector<double>> &values,
                 const char *fmt = "%10.3f")
{
    std::printf("%-14s", row_label.c_str());
    for (const auto &s : series)
        std::printf("%10s", s.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < row_names.size(); ++r) {
        std::printf("%-14s", row_names[r].c_str());
        for (std::size_t c = 0; c < series.size(); ++c)
            std::printf(fmt, values[r][c]);
        std::printf("\n");
    }
    std::printf("\n");
}

/** Index of the maximum element. */
inline std::size_t
argmax(const std::vector<double> &v)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i)
        if (v[i] > v[best])
            best = i;
    return best;
}

} // namespace benchutil
} // namespace smtflex

#endif // SMTFLEX_BENCH_BENCH_UTIL_H
