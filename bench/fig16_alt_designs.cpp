/**
 * @file
 * Figure 16: alternative medium/small-core designs for the multi-threaded
 * benchmarks (ROI only, SMT enabled): 6m_lc and 16s_lc enlarge the private
 * caches to the big core's (power-equivalence becomes 1:1.5/1:4), 6m_hf and
 * 16s_hf raise the clock to 3.33 GHz.
 *
 * Paper Finding #10: larger caches or higher frequency help the small-core
 * configuration but hurt the medium one; 4B with SMT stays near-optimal.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "exec/parallel.h"
#include "common/stats.h"
#include "study/design_space.h"
#include "workload/parsec.h"

using namespace smtflex;

namespace {

double
avgRoiSpeedup(StudyEngine &eng, const ChipConfig &cfg)
{
    std::vector<double> speedups;
    for (const auto &bench : parsecBenchmarkNames()) {
        const ParsecMetrics base = eng.parsec(paperDesign("4B"), bench, 4);
        speedups.push_back(base.roiCycles /
                           eng.bestParsecCycles(cfg, bench, true));
    }
    return harmonicMean(speedups);
}

} // namespace

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 16",
                      "Large-cache / high-frequency variants, PARSEC ROI "
                      "speedups (normalised to 4 threads on 4B)");
    benchutil::printOptions(eng.options());

    const std::vector<std::string> baselines = {"4B", "8m", "20s"};
    std::printf("baselines:\n");
    double v8m = 0, v20s = 0;
    const auto base_scores =
        exec::mapItems(baselines, [&](const auto &name) {
            return avgRoiSpeedup(eng, paperDesign(name));
        });
    for (std::size_t i = 0; i < baselines.size(); ++i) {
        if (baselines[i] == "8m")
            v8m = base_scores[i];
        if (baselines[i] == "20s")
            v20s = base_scores[i];
        std::printf("  %-7s %8.3f\n", baselines[i].c_str(), base_scores[i]);
    }
    std::printf("variants:\n");
    double m_lc = 0, s_lc = 0, m_hf = 0, s_hf = 0;
    const auto var_scores =
        exec::mapItems(alternativeDesignNames(), [&](const auto &name) {
            return avgRoiSpeedup(eng, alternativeDesign(name));
        });
    for (std::size_t i = 0; i < alternativeDesignNames().size(); ++i) {
        const auto &name = alternativeDesignNames()[i];
        const double s = var_scores[i];
        if (name == "6m_lc")
            m_lc = s;
        if (name == "16s_lc")
            s_lc = s;
        if (name == "6m_hf")
            m_hf = s;
        if (name == "16s_hf")
            s_hf = s;
        std::printf("  %-7s %8.3f\n", name.c_str(), s);
    }

    std::printf("\nsmall-core variants vs 20s: lc %+.1f%%, hf %+.1f%% "
                "(paper: both help, hf more)\n",
                100.0 * (s_lc / v20s - 1.0), 100.0 * (s_hf / v20s - 1.0));
    std::printf("medium-core variants vs 8m: lc %+.1f%%, hf %+.1f%% "
                "(paper: both hurt — fewer cores not compensated)\n",
                100.0 * (m_lc / v8m - 1.0), 100.0 * (m_hf / v8m - 1.0));
    return 0;
}
