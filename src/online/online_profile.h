/**
 * @file
 * smtflex::online — counter-derived thread profiles and the deterministic
 * classifier (DESIGN.md §14).
 *
 * The offline oracle (sched/scheduler.h) steers placement from a table of
 * isolated IPCs plus a *static* memory-intensity formula over the profile
 * structs. The online layer has neither: it sees only the counters of
 * short sample runs — per-core retired/IPC and cache-miss totals, read
 * from each run's SimResult. This file defines the counter-space image of
 * the oracle's inputs: a TypeSample per (thread, core type) from a short
 * solo sample run, a ThreadProfile aggregating them, and a SYNPA-style
 * classifier bucketing threads into memory-bound / mixed / ILP-bound.
 *
 * The memory-intensity proxy is LLC misses per kilo-instruction (DRAM
 * traffic), not private-L2 MPKI: codes whose working set fits the LLC but
 * conflicts in L2 (gobmk-like) show high L2 MPKI while generating no
 * off-chip traffic — exactly the threads SMT co-scheduling wants treated
 * as compute-bound. LLC MPKI ranks the streaming codes (lbm, libquantum,
 * milc) on top and the cache-resident ones at the bottom, matching the
 * oracle's static ranking on the co-schedule decisions that matter.
 */

#ifndef SMTFLEX_ONLINE_ONLINE_PROFILE_H
#define SMTFLEX_ONLINE_ONLINE_PROFILE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "uarch/core_params.h"

namespace smtflex {
namespace online {

/** Classifier buckets, SYNPA-style. */
enum class ThreadClass { kMemoryBound, kMixed, kIlpBound };

/** Stable lowercase tag ("memory" / "mixed" / "ilp") for keys and text. */
const char *threadClassName(ThreadClass klass);

/** Counter readings from one solo sample run on one core type. */
struct TypeSample
{
    double ipc = 0.0;
    /** Private-L2 misses per kilo-instruction. */
    double l2Mpki = 0.0;
    /** LLC misses per kilo-instruction (off-chip traffic — the memory-
     * intensity proxy; see the file comment). */
    double llcMpki = 0.0;
    /** Whole sample quanta (kSampleQuantum cycles each) the run took. */
    std::uint64_t quanta = 0;
};

/** Classifier cut points, in sampled-counter space. Defaults calibrated
 * on the 12 SPEC models at the study's reference budget: the streaming
 * codes sit above 5 LLC misses per kilo-instruction by an order of
 * magnitude, and the compute codes that gain most from a big core retire
 * at 2+ IPC there. */
struct ClassifierThresholds
{
    /** At or above this big-core LLC MPKI a thread is memory-bound. */
    double memoryLlcMpki = 5.0;
    /** At or above this big-core IPC a non-memory thread is ILP-bound. */
    double ilpIpc = 2.0;
};

/** Everything the sample phase learned about one thread. */
struct ThreadProfile
{
    std::string benchmark;
    /** Keyed by core type; always includes kBig and kSmall (the affinity
     * extremes) plus every type the target chip has. */
    std::map<CoreType, TypeSample> samples;
    ThreadClass klass = ThreadClass::kMixed;

    bool has(CoreType type) const;
    /** Sample on @p type; fatal() when the phase never ran it. */
    const TypeSample &sample(CoreType type) const;

    /** Sampled big-core affinity: IPC on big / IPC on small — the online
     * image of OfflineProfile::bigAffinity. */
    double bigAffinity() const;
    /** Sampled memory intensity: big-core LLC MPKI. */
    double memIntensity() const;
};

/** Deterministic classification from sampled counters. */
ThreadClass classify(const ThreadProfile &profile,
                     const ClassifierThresholds &thresholds);

/** The sample phase's product: one profile per workload thread. */
struct OnlineProfile
{
    std::vector<ThreadProfile> threads;

    /** Total sample quanta behind this profile. */
    std::uint64_t quantaSampled() const;
    /** Per-thread bigAffinity(), placement-rank order. */
    std::vector<double> affinities() const;
    /** Per-thread memIntensity(), co-schedule-pairing order. */
    std::vector<double> memIntensities() const;
};

} // namespace online
} // namespace smtflex

#endif // SMTFLEX_ONLINE_ONLINE_PROFILE_H
