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
#include "study/design_space.h"
#include "study/figures.h"

using namespace smtflex;

int
main()
{
    StudyEngine eng;
    benchutil::banner("Figure 16",
                      "Large-cache / high-frequency variants, PARSEC ROI "
                      "speedups (normalised to 4 threads on 4B)");
    benchutil::printOptions(eng.options());

    const auto baselines =
        parsecSpeedups(eng, paperConfigs({"4B", "8m", "20s"}), true);
    std::vector<ChipConfig> variant_configs;
    for (const auto &name : alternativeDesignNames())
        variant_configs.push_back(alternativeDesign(name));
    const auto variants = parsecSpeedups(eng, variant_configs, true);

    std::printf("baselines:\n");
    for (const ParsecSpeedups &s : baselines)
        std::printf("  %-7s %8.3f\n", s.design.c_str(), s.mean);
    std::printf("variants:\n");
    for (const ParsecSpeedups &s : variants)
        std::printf("  %-7s %8.3f\n", s.design.c_str(), s.mean);

    const double v8m = byDesign(baselines, "8m").mean;
    const double v20s = byDesign(baselines, "20s").mean;
    const double m_lc = byDesign(variants, "6m_lc").mean;
    const double s_lc = byDesign(variants, "16s_lc").mean;
    const double m_hf = byDesign(variants, "6m_hf").mean;
    const double s_hf = byDesign(variants, "16s_hf").mean;
    std::printf("\nsmall-core variants vs 20s: lc %+.1f%%, hf %+.1f%% "
                "(paper: both help, hf more)\n",
                100.0 * (s_lc / v20s - 1.0), 100.0 * (s_hf / v20s - 1.0));
    std::printf("medium-core variants vs 8m: lc %+.1f%%, hf %+.1f%% "
                "(paper: both hurt — fewer cores not compensated)\n",
                100.0 * (m_lc / v8m - 1.0), 100.0 * (m_hf / v8m - 1.0));
    return 0;
}
