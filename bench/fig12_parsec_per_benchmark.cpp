/**
 * @file
 * Figure 12: per-benchmark PARSEC speedups (normalised to 4 threads on 4B)
 * for 4B, 8m, 20s, 1B6m, 1B15s with SMT enabled — ROI-only and whole
 * program.
 *
 * Expected: 20s optimal for the well-scaling benchmarks (ROI), 4B or a
 * heterogeneous design for the poorly scaling ones and for most whole-
 * program results.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "workload/parsec.h"

using namespace smtflex;

namespace {

void
table(StudyEngine &eng, bool roi_only)
{
    const auto speedups = parsecSpeedups(
        eng, paperConfigs({"4B", "8m", "20s", "1B6m", "1B15s"}), roi_only);
    std::printf("(%s, SMT enabled)\n", roi_only ? "ROI only"
                                                : "whole program");
    std::printf("%-14s", "benchmark");
    for (const ParsecSpeedups &s : speedups)
        std::printf("%9s", s.design.c_str());
    std::printf("%9s\n", "best");
    const auto &apps = parsecBenchmarkNames();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::printf("%-14s", apps[a].c_str());
        for (const ParsecSpeedups &s : speedups)
            std::printf("%9.3f", s.apps[a]);
        const std::size_t best = bestOf(
            speedups, [a](const ParsecSpeedups &s) { return s.apps[a]; });
        std::printf("%9s\n", speedups[best].design.c_str());
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 12", "Per-benchmark PARSEC speedups");
    benchutil::printOptions(eng.options());
    table(eng, true);
    table(eng, false);
    return 0;
}
