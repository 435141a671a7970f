/**
 * @file
 * Figure 9: per-benchmark average STP under the uniform thread-count
 * distribution, SMT enabled in all designs (homogeneous workloads).
 *
 * Expected: calculix/h264ref/hmmer/tonto favour heterogeneous designs;
 * bandwidth-bound libquantum/mcf favour (or tie with) 4B.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "trace/spec_profiles.h"
#include "workload/distributions.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 9",
                      "Per-benchmark STP, uniform distribution, SMT "
                      "everywhere");
    benchutil::printOptions(eng.options());

    const auto dist = uniformThreadCounts(eng.options().maxThreads);
    std::printf("%-12s", "benchmark");
    for (const auto &name : paperDesignNames())
        std::printf("%9s", name.c_str());
    std::printf("%10s\n", "best");

    for (const auto &bench : specBenchmarkNames()) {
        const auto points =
            distributionPoints(eng, paperDesigns(), dist, false, bench);
        std::printf("%-12s", bench.c_str());
        for (const DistributionPoint &p : points)
            std::printf("%9.3f", p.stp);
        std::printf("%10s\n",
                    points[bestOf(points, &DistributionPoint::stp)]
                        .design.c_str());
    }
    return 0;
}
