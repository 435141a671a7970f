/**
 * @file
 * Extension: the Hill & Marty analytical comparison the paper argues
 * against (Section 6 / Section 9). Under Amdahl assumptions (software is
 * either serial or infinitely parallel, no SMT), asymmetric beats
 * symmetric and dynamic beats both. The paper's empirical point is that
 * with *varying active thread counts* and SMT, a symmetric chip of big
 * SMT cores closes the gap. This bench prints the analytical curves next
 * to the measured simulation results so the contrast is explicit.
 */

#include <cstdio>

#include "analytic/hill_marty.h"
#include "bench/bench_util.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "workload/distributions.h"

using namespace smtflex;

int
main()
{
    benchutil::banner("Extension: Hill & Marty vs measurement",
                      "Analytical Amdahl-law design space vs the simulated "
                      "one");

    // Analytical side: budget 20 BCEs (one small core = 1 BCE; the paper's
    // big core is ~5 BCEs worth of power), sqrt performance.
    std::printf("(a) Hill-Marty speedups, n = 20 BCEs\n");
    std::printf("%-8s %12s %12s %12s\n", "f", "symmetric", "asymmetric",
                "dynamic");
    for (const double f : {0.5, 0.8, 0.9, 0.95, 0.99}) {
        HillMartyParams p;
        p.budgetBce = 20.0;
        p.parallelFraction = f;
        std::printf("%-8.2f %12.2f %12.2f %12.2f\n", f,
                    bestSymmetricSpeedup(p), bestAsymmetricSpeedup(p),
                    bestDynamicSpeedup(p));
    }
    std::printf("\nAnalytically: asymmetric >= symmetric and dynamic >= "
                "asymmetric for every f (Hill & Marty).\n\n");

    // Empirical side: the same three paradigms under VARYING thread counts
    // with SMT (the paper's setting).
    StudyEngine eng;
    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    const DesignGrid grid =
        designGrid(eng, paperDesigns(), eng.sweepThreadCounts(), true);
    const double sym_4b = byDesign(distributionPoints(eng, grid, dist), "4B")
                              .stp;
    const auto asym = distributionPoints(
        eng, paperConfigs({"3B2m", "3B5s", "2B4m", "2B10s", "1B6m", "1B15s"}),
        dist, true);
    const DistributionPoint &best_het =
        asym[bestOf(asym, &DistributionPoint::stp)];
    // Ideal dynamic: best design at each thread count.
    const double dynamic =
        distributionPoints(eng, dynamicEnvelope(grid), dist)[0].stp;

    std::printf("(b) measured (uniform thread-count distribution, SMT, "
                "heterogeneous workloads)\n");
    std::printf("  symmetric 4B (SMT):       %7.3f\n", sym_4b);
    std::printf("  best asymmetric (%s):   %7.3f\n", best_het.design.c_str(),
                best_het.stp);
    std::printf("  ideal dynamic:            %7.3f\n", dynamic);
    std::printf(
        "\nPaper's point: analytically the asymmetric design beats the "
        "symmetric one by construction (%.1fx at f=0.9 above); measured "
        "under varying thread counts with SMT, the symmetric big-SMT chip "
        "recovers to %.0f%% of the best asymmetric design and %.0f%% of "
        "the ideal dynamic one — most of the analytical gap evaporates "
        "once thread counts vary and SMT provides the flexibility.\n",
        [&] {
            HillMartyParams p;
            p.budgetBce = 20.0;
            p.parallelFraction = 0.9;
            return bestAsymmetricSpeedup(p) / bestSymmetricSpeedup(p);
        }(),
        100.0 * sym_4b / best_het.stp, 100.0 * sym_4b / dynamic);
    return 0;
}
