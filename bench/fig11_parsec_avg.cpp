/**
 * @file
 * Figure 11: average normalised speedup over all PARSEC benchmarks for
 * 4B, 8m, 20s, 1B6m, 1B15s — ROI-only and whole-program, with and without
 * SMT. Speedups are normalised to the 4-threaded execution on 4B and the
 * paper reports the best speedup across thread counts.
 *
 * Paper Finding #7: ROI-only without SMT -> 8m best; adding SMT brings 4B
 * close. Whole-program -> 4B best both with and without SMT.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"
#include "study/figures.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 11",
                      "PARSEC mean normalised speedup (vs 4 threads on "
                      "4B), best thread count per design");
    benchutil::printOptions(eng.options());

    const std::vector<std::string> designs = {"4B", "8m", "20s", "1B6m",
                                              "1B15s"};
    for (const bool roi_only : {true, false}) {
        std::printf("(%s)\n", roi_only ? "ROI only" : "whole program");
        for (const bool smt : {false, true}) {
            std::printf("  %s SMT:\n", smt ? "with" : "without");
            const auto speedups = parsecSpeedups(
                eng, paperConfigs(designs, smt), roi_only);
            for (const ParsecSpeedups &s : speedups)
                std::printf("    %-6s %8.3f\n", s.design.c_str(), s.mean);
            std::printf("    best: %s\n",
                        speedups[bestOf(speedups, &ParsecSpeedups::mean)]
                            .design.c_str());
        }
        std::printf("\n");
    }
    std::printf("Paper: ROI w/o SMT best=8m; ROI w/ SMT 4B close to 8m; "
                "whole program best=4B in both modes.\n");
    return 0;
}
