/**
 * @file
 * OnlineProfiler — the sample phase of the online scheduler (DESIGN.md
 * §14). Each distinct benchmark of a workload runs a short solo sample
 * on each relevant core type inside ChipSim::runMultiProgram; IPC, miss
 * counters and the quanta count (the run's cycles per kSampleQuantum) are
 * read from the run's SimResult. Sample runs are the same runs the
 * offline oracle's table is built from, which is what makes a converged
 * profile reproduce the oracle's placement exactly (the golden test).
 *
 * Samples are memoised per (benchmark, core type) within a profiler, and
 * distinct samples fan out over the smtflex::exec pool with deterministic
 * results for any job count.
 */

#ifndef SMTFLEX_ONLINE_ONLINE_PROFILER_H
#define SMTFLEX_ONLINE_ONLINE_PROFILER_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "online/online_profile.h"
#include "sim/chip_config.h"
#include "sim/chip_sim.h"

namespace smtflex {
namespace online {

/** Global cycles per sample quantum (the unit TypeSample::quanta counts). */
inline constexpr Cycle kSampleQuantum = 5'000;

/** Knobs of the sample phase. */
struct ProfilerOptions
{
    /** Measured instructions per sample run (short by design; raise to
     * the study budget for a fully converged — oracle-grade — profile). */
    InstrCount sampleBudget = 3'000;
    /** Unmeasured cold-start instructions per sample run. */
    InstrCount sampleWarmup = 1'000;
    std::uint64_t seed = 12'345;
    /** Off-chip bandwidth of the sample chips (match the target study). */
    double bandwidthGBps = 8.0;
};

class OnlineProfiler
{
  public:
    explicit OnlineProfiler(ProfilerOptions options = ProfilerOptions());

    const ProfilerOptions &options() const { return options_; }

    /**
     * Core types the sample phase runs each thread on for @p config: the
     * chip's own types (placement prediction needs them) plus kBig and
     * kSmall always (the affinity extremes the ranking is defined over,
     * exactly as the oracle's table is), big-to-small order.
     */
    static std::vector<CoreType> sampledTypes(const ChipConfig &config);

    /** One solo sample run (memoised per profiler instance). */
    TypeSample sample(const BenchmarkProfile &profile, CoreType type);

    /**
     * Profile a workload for @p config: sample every distinct benchmark
     * on every sampled type (fanned out over the exec pool), aggregate
     * per thread, classify. Thread i of the result is specs[i].
     */
    OnlineProfile
    profileWorkload(const ChipConfig &config,
                    const std::vector<ThreadSpec> &specs,
                    const ClassifierThresholds &thresholds =
                        ClassifierThresholds());

    /** Solo sample runs actually executed (memo misses). */
    std::uint64_t samplesRun() const;

  private:
    TypeSample sampleUncached(const BenchmarkProfile &profile,
                              CoreType type) const;

    ProfilerOptions options_;
    mutable std::mutex mutex_;
    std::map<std::pair<std::string, int>, TypeSample> memo_;
    std::uint64_t samplesRun_ = 0;
};

} // namespace online
} // namespace smtflex

#endif // SMTFLEX_ONLINE_ONLINE_PROFILER_H
