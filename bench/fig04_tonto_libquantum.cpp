/**
 * @file
 * Figure 4: STP vs thread count of the nine designs for two representative
 * homogeneous workloads — (a) tonto (compute-bound: heterogeneous designs
 * pull ahead at high counts) and (b) libquantum (bandwidth-bound: shared
 * memory contention flattens all designs).
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "study/design_space.h"

using namespace smtflex;

namespace {

DesignGrid
perBenchmark(StudyEngine &eng, const std::string &bench)
{
    const DesignGrid grid = designGrid(eng, paperDesigns(),
                                       eng.sweepThreadCounts(), false, bench);
    std::printf("(%s, homogeneous multi-program)\n", bench.c_str());
    benchutil::printGrid(grid, &RunMetrics::stp, 3);
    std::printf("\n");
    return grid;
}

} // namespace

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 4",
                      "Per-benchmark STP vs thread count: tonto (compute) "
                      "and libquantum (bandwidth-bound)");
    benchutil::printOptions(eng.options());

    const DesignGrid tonto = perBenchmark(eng, "tonto");
    const DesignGrid libquantum = perBenchmark(eng, "libquantum");

    // The paper's diagnostic: for libquantum, memory access time at 24
    // threads is ~4x the isolated latency; the configurations converge.
    const double lq_4b_24 = libquantum.at(24, "4B").stp;
    const double lq_20s_24 = libquantum.at(24, "20s").stp;
    std::printf("libquantum @24 threads: 4B=%.3f vs 20s=%.3f (ratio %.2f; "
                "paper: near parity)\n",
                lq_4b_24, lq_20s_24, lq_4b_24 / lq_20s_24);
    const double to_4b_24 = tonto.at(24, "4B").stp;
    const double to_20s_24 = tonto.at(24, "20s").stp;
    std::printf("tonto      @24 threads: 4B=%.3f vs 20s=%.3f (ratio %.2f; "
                "paper: 4B clearly below)\n",
                to_4b_24, to_20s_24, to_4b_24 / to_20s_24);
    return 0;
}
