/**
 * @file
 * Figure 13: the 4B design with SMT versus an IDEAL dynamic multi-core
 * that morphs, with zero overhead, into the best of the nine
 * configurations at every thread count — with and without SMT.
 *
 * Paper Finding #8: 4B with SMT matches or beats the dynamic multi-core
 * without SMT; the dynamic multi-core with SMT is best but most complex.
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
    benchutil::banner("Figure 13",
                      "4B+SMT vs ideal (zero-overhead) dynamic multi-core");
    benchutil::printOptions(eng.options());

    const auto counts = eng.sweepThreadCounts();
    for (const bool het : {false, true}) {
        const DesignGrid smt = designGrid(eng, paperDesigns(), counts, het);
        const DesignGrid dyn_smt = dynamicEnvelope(smt);
        const DesignGrid dyn_nosmt = dynamicEnvelope(designGrid(
            eng, paperConfigs(paperDesignNames(), false), counts, het));
        std::printf("(%s workloads)\n", het ? "heterogeneous"
                                            : "homogeneous");
        std::printf("%-8s %12s %14s %14s\n", "threads", "4B (SMT)",
                    "dynamic w/o SMT", "dynamic w/ SMT");
        for (std::size_t r = 0; r < counts.size(); ++r) {
            std::printf("%-8u %12.3f %14.3f %14.3f\n", counts[r],
                        smt.at(counts[r], "4B").stp,
                        dyn_nosmt.rows[r][0].stp, dyn_smt.rows[r][0].stp);
        }
        std::printf("\n");
    }
    std::printf("Paper: the 4B(SMT) curve rises smoothly and matches the "
                "no-SMT dynamic core; dynamic+SMT is the (complex) upper "
                "bound.\n");
    return 0;
}
