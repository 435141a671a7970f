/**
 * @file
 * Shared helpers for the figure-regeneration benches: consistent headers,
 * the study parameters, and argmax. Every bench binary prints the
 * rows/series of one paper table or figure; results are memoised in the
 * shared disk cache (smtflex_cache.txt by default), so the first bench to
 * run a sweep pays for it and the rest replay it.
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
