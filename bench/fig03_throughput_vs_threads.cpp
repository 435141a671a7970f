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
#include "exec/parallel.h"
#include "study/design_space.h"

using namespace smtflex;

namespace {

void
sweep(StudyEngine &eng, bool heterogeneous)
{
    const auto &names = paperDesignNames();
    std::printf("(%s workloads)\n", heterogeneous ? "heterogeneous"
                                                  : "homogeneous");
    std::printf("%-8s", "threads");
    for (const auto &name : names)
        std::printf("%9s", name.c_str());
    std::printf("\n");
    // Flatten the (thread count x design) grid into independent runs.
    const auto counts = eng.sweepThreadCounts();
    const auto grid = exec::map(counts.size() * names.size(),
                                [&](std::size_t i) {
        const std::uint32_t n = counts[i / names.size()];
        const ChipConfig cfg = paperDesign(names[i % names.size()]);
        return heterogeneous ? eng.heterogeneousAt(cfg, n).stp
                             : eng.homogeneousAt(cfg, n).stp;
    });
    for (std::size_t r = 0; r < counts.size(); ++r) {
        std::printf("%-8u", counts[r]);
        for (std::size_t c = 0; c < names.size(); ++c)
            std::printf("%9.3f", grid[r * names.size() + c]);
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 3", "STP vs thread count, nine designs, SMT "
                                  "in all cores");
    benchutil::printOptions(eng.options());
    sweep(eng, false);
    sweep(eng, true);

    // Headline comparison at 24 threads (paper: 4B within ~11.6% of the
    // best for homogeneous, ~7.1% for heterogeneous workloads).
    for (const bool het : {false, true}) {
        double best = 0.0;
        std::string best_name;
        double v4b = 0.0;
        for (const auto &name : paperDesignNames()) {
            const double stp = het
                ? eng.heterogeneousAt(paperDesign(name), 24).stp
                : eng.homogeneousAt(paperDesign(name), 24).stp;
            if (stp > best) {
                best = stp;
                best_name = name;
            }
            if (name == "4B")
                v4b = stp;
        }
        std::printf("24 threads, %s: best=%s (%.3f), 4B=%.3f (%.1f%% below "
                    "best)\n",
                    het ? "heterogeneous" : "homogeneous",
                    best_name.c_str(), best, v4b,
                    100.0 * (best - v4b) / best);
    }
    return 0;
}
