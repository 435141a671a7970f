/**
 * @file
 * The experiment driver that regenerates the paper's evaluation: it runs
 * (and memoises) isolated characterisation runs, multi-program workloads
 * with the offline scheduling methodology, PARSEC application runs, and the
 * per-thread-count sweep rows the figures (study/figures.h) aggregate.
 */

#ifndef SMTFLEX_STUDY_STUDY_ENGINE_H
#define SMTFLEX_STUDY_STUDY_ENGINE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "online/online_policy.h"
#include "power/power_model.h"
#include "sched/scheduler.h"
#include "sim/chip_config.h"
#include "study/result_cache.h"
#include "workload/multiprogram.h"
#include "workload/parsec.h"

namespace smtflex {

/** Global knobs of a study. */
struct StudyOptions
{
    /** Per-program instruction budget (the SimPoint substitute). */
    InstrCount budget = 12'000;
    /** Unmeasured warmup instructions per program (cold-start exclusion;
     * functional cache warmup handles the caches, this covers pipeline and
     * queue state). */
    InstrCount warmup = 3'000;
    /** Simulation seed. */
    std::uint64_t seed = 12'345;
    /** Cache file path; empty = no persistence. */
    std::string cachePath = "smtflex_cache.txt";
    /** Heterogeneous mixes per thread count (paper: 12). */
    std::uint32_t hetMixes = 12;
    /** Maximum thread count of the study (paper: 24). */
    std::uint32_t maxThreads = 24;
    /** Off-chip bandwidth in GB/s (8 default, 16 in Section 8.2). */
    double bandwidthGBps = 8.0;

    /**
     * Sweep resolution: thread counts actually simulated. When false
     * (default), counts above 8 are sampled every other value (9 is
     * represented by 10, etc.) — the curves are smooth there and the
     * saved simulations halve the campaign cost. SMTFLEX_FULLSWEEP=1
     * restores the paper's full 1..24 resolution.
     */
    bool fullSweep = false;

    /** Apply SMTFLEX_BUDGET / SMTFLEX_WARMUP / SMTFLEX_MIXES /
     * SMTFLEX_CACHE / SMTFLEX_SEED / SMTFLEX_FULLSWEEP overrides. */
    static StudyOptions fromEnv();
};

/** Metrics of one multi-program run. */
struct RunMetrics
{
    double stp = 0.0;  ///< system throughput (weighted speedup)
    double antt = 0.0; ///< average normalised turnaround time
    double powerGatedW = 0.0;   ///< avg chip power with idle cores gated
    double powerUngatedW = 0.0; ///< avg chip power without gating
    double cycles = 0.0;
    bool hitLimit = false;
};

/**
 * A memoised online scheduling decision (the serve `schedule` op's
 * payload): the placement, per-thread classes, predictions and decision
 * counters — everything the text rendering needs, in cacheable form.
 */
struct PlacementDecision
{
    Placement placement;
    /** Classifier bucket per thread, workload order. */
    std::vector<online::ThreadClass> classes;
    double predictedStp = 0.0;
    double predictedAntt = 0.0;
    std::uint32_t epochs = 0;
    double migrations = 0.0;
    double reclassifications = 0.0;
    double quantaSampled = 0.0;
    double samplesRun = 0.0;
};

/** Metrics of one multi-program run under an online placement. */
struct ScheduleMetrics
{
    RunMetrics run;
    double predictedStp = 0.0;
    double predictedAntt = 0.0;
};

/** Metrics of one multi-threaded (PARSEC) run. */
struct ParsecMetrics
{
    double roiCycles = 0.0;
    double totalCycles = 0.0;
    double powerGatedW = 0.0;
    bool completed = false;
    std::vector<double> roiActiveThreadFractions;
};

/**
 * Memoised experiment driver. All results are deterministic functions of
 * (StudyOptions, config, workload); repeated calls — across bench binaries,
 * via the disk cache — are free.
 *
 * The engine is safe to drive from multiple threads and parallelises its
 * own sweeps internally (homogeneousAt/heterogeneousAt fan the independent
 * workload runs out over the smtflex::exec thread pool; bestParsecCycles
 * fans out over thread-count candidates). SMTFLEX_JOBS controls the worker
 * count; with SMTFLEX_JOBS=1 everything runs serially, and every metric an
 * engine reports is byte-identical for any job count.
 */
class StudyEngine
{
  public:
    explicit StudyEngine(StudyOptions options = StudyOptions::fromEnv());

    const StudyOptions &options() const { return options_; }
    const PowerModel &powerModel() const { return power_; }

    /** The engine's persistent memoisation cache (shared with the serve
     * layer for stats reporting and shutdown flushing). */
    ResultCache &resultCache() { return cache_; }
    const ResultCache &resultCache() const { return cache_; }

    /** Apply the study's bandwidth option to @p config. */
    ChipConfig configured(const ChipConfig &config) const;

    /** Thread counts simulated by the sweeps (see StudyOptions::fullSweep). */
    std::vector<std::uint32_t> sweepThreadCounts() const;

    /** The rows of a sweep on @p config: the sweepThreadCounts() that fit
     * its hardware contexts. The sweep renderer, the sweep_chunk op and
     * the dist coordinator all iterate these. */
    std::vector<std::uint32_t> sweepRows(const ChipConfig &config) const;

    /** The simulated count representing thread count @p n. */
    std::uint32_t nearestSweepCount(std::uint32_t n) const;

    // ---- offline analysis (isolated characterisation runs) ----

    /** Isolated IPC of @p bench on a solo core of @p type (cached). */
    double isolatedIpc(const std::string &bench, CoreType type);

    /** Offline table over all SPEC benchmarks and core types. */
    const OfflineProfile &offline();

    // ---- multi-program experiments ----

    /** Run one workload on @p config (offline-scheduled, cached). */
    RunMetrics multiprogram(const ChipConfig &config,
                            const MultiProgramWorkload &workload);

    /** Run one workload naively scheduled (ablation baseline, cached). */
    RunMetrics multiprogramNaive(const ChipConfig &config,
                                 const MultiProgramWorkload &workload);

    /** Harmonic-mean STP over the 12 homogeneous workloads at @p n. */
    RunMetrics homogeneousAt(const ChipConfig &config, std::uint32_t n);

    /** Harmonic-mean STP over the heterogeneous mixes at @p n. */
    RunMetrics heterogeneousAt(const ChipConfig &config, std::uint32_t n);

    /**
     * One sweep row at thread count @p n: n copies of @p bench when it is
     * non-empty, else the heterogeneous mixes (@p het) or the 12
     * homogeneous workloads. The sweep renderer, the dist chunks and the
     * figure grids (study/figures.h) all select their rows here;
     * sweepRowCacheKeys names the records a row reads.
     */
    RunMetrics sweepRow(const ChipConfig &config, const std::string &bench,
                        bool het, std::uint32_t n);

    // ---- online scheduling (smtflex::online; DESIGN.md §14) ----

    /** Online profiler/policy knobs derived from the study options (the
     * sample budget is a quarter of the study budget — short quanta by
     * design; the cache keys stay pure functions of StudyOptions). */
    online::OnlineOptions onlineOptions(const std::string &policy) const;

    /** Decide an online placement for one workload (cached). */
    PlacementDecision decidePlacement(const ChipConfig &config,
                                      const MultiProgramWorkload &workload,
                                      const std::string &policy);

    /** Run one workload under the online placement (cached). */
    ScheduleMetrics multiprogramOnline(const ChipConfig &config,
                                       const MultiProgramWorkload &workload,
                                       const std::string &policy);

    /** Online-scheduling counters (the serve layer registers them under
     * `sched.*`). */
    online::SchedStats &schedStats() { return schedStats_; }

    // ---- multi-threaded experiments ----

    /** One PARSEC run (cached). */
    ParsecMetrics parsec(const ChipConfig &config, const std::string &bench,
                         std::uint32_t threads);

    /**
     * Fastest run over the candidate thread counts (the paper reports the
     * maximum speedup across all possible thread counts). Without SMT the
     * only candidate is the core count.
     * @return best cycles (ROI or whole program).
     */
    double bestParsecCycles(const ChipConfig &config,
                            const std::string &bench, bool roi_only);

    /** Candidate thread counts for @p config under its SMT setting. */
    std::vector<std::uint32_t>
    parsecThreadCandidates(const ChipConfig &config) const;

    // ---- cache-key enumeration (the dist federation layer) ----

    /** Cache keys of the 12 x 3 isolated characterisation runs backing
     * the offline table (and the normalisation of every workload run). */
    std::vector<std::string> isolationCacheKeys() const;

    /** Cache keys of the multiprogram records sweepRow(config, bench,
     * het, n) reads, one per workload of the row. */
    std::vector<std::string> sweepRowCacheKeys(const ChipConfig &config,
                                               const std::string &bench,
                                               bool het,
                                               std::uint32_t n) const;

  private:
    std::string keyPrefix(const ChipConfig &config) const;
    std::string multiprogramKey(const ChipConfig &config,
                                const MultiProgramWorkload &workload) const;
    /**
     * The workloads of sweep row (@p bench, @p het, @p n): n copies of
     * @p bench when it is non-empty, else the heterogeneous mixes (@p het;
     * one thread degenerates to the homogeneous suite) or the 12
     * homogeneous workloads. sweepRow runs them and sweepRowCacheKeys
     * names their records.
     */
    std::vector<MultiProgramWorkload>
    sweepRowWorkloads(const std::string &bench, bool het,
                      std::uint32_t n) const;
    std::string isolationKey(const std::string &bench, CoreType type) const;
    RunMetrics runMultiprogramUncached(const ChipConfig &config,
                                       const MultiProgramWorkload &workload);
    /** Simulate @p specs under @p placement on the configured chip and
     * derive RunMetrics (shared by the oracle, naive and online paths). */
    RunMetrics runPlacement(const ChipConfig &chip_config,
                            const std::vector<ThreadSpec> &specs,
                            const Placement &placement);
    /** Decode a cached mp;/mpn;/olr; record; fatal() naming @p key when
     * it holds fewer than the six RunMetrics values. */
    static RunMetrics decodeRunMetrics(const std::string &key,
                                       const std::vector<double> &values);
    static std::vector<double> encodeRunMetrics(const RunMetrics &metrics);
    ParsecMetrics runParsecUncached(const ChipConfig &config,
                                    const std::string &bench,
                                    std::uint32_t threads);

    StudyOptions options_;
    ResultCache cache_;
    PowerModel power_;
    OfflineProfile offline_;
    std::once_flag offlineOnce_;
    online::SchedStats schedStats_;
};

} // namespace smtflex

#endif // SMTFLEX_STUDY_STUDY_ENGINE_H
