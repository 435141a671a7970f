/**
 * @file
 * The multi-core chip simulator: couples the cores to the shared memory
 * system, advances global time, manages thread placement (including
 * time-sharing when threads outnumber hardware contexts), and collects
 * results.
 */

#ifndef SMTFLEX_SIM_CHIP_SIM_H
#define SMTFLEX_SIM_CHIP_SIM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "sim/chip_config.h"
#include "telemetry/registry.h"
#include "sim/shared_memory.h"
#include "sim/sim_thread.h"
#include "uarch/core.h"

namespace smtflex {

/** One program of a multi-program workload. */
struct ThreadSpec
{
    const BenchmarkProfile *profile = nullptr;
    InstrCount budget = 0;
    /** Unmeasured cold-start instructions before the measured window. */
    InstrCount warmup = 0;
};

/** Thread -> (core, SMT context slot) mapping. Multiple threads may map to
 * the same slot; they then time-share it with round-robin quanta. */
struct Placement
{
    struct Entry
    {
        std::uint32_t core = 0;
        std::uint32_t slot = 0;
    };
    std::vector<Entry> entries; ///< indexed by thread id
};

/** Per-thread outcome of a run. */
struct ThreadResult
{
    std::string benchmark;
    InstrCount budget = 0;
    Cycle startCycle = 0; ///< measured window start (warmup retired)
    Cycle finishCycle = kCycleNever;
    bool finished = false;

    /** Instructions per global cycle over the measured window. */
    double ipc() const
    {
        return finished ? static_cast<double>(budget) /
                static_cast<double>(finishCycle - startCycle)
                        : 0.0;
    }
};

/** Per-core outcome of a run. */
struct CoreResult
{
    CoreParams params;
    CoreStats stats;
    CacheStats l1i, l1d, l2;
    /** Global cycles during which at least one thread was attached. */
    Cycle poweredCycles = 0;
};

/** Complete outcome of a run. */
struct SimResult
{
    std::string configName;
    Cycle cycles = 0;            ///< run length in global cycles
    double chipFreqGHz = 2.66;
    bool hitCycleLimit = false;
    std::vector<ThreadResult> threads;
    std::vector<CoreResult> cores;
    CacheStats llc;
    DramStats dram;
    CrossbarStats xbar;
    /** Fraction of time with k attached threads, k = 0..totalContexts. */
    std::vector<double> activeThreadFractions;

    /** Seconds of simulated wall-clock time. */
    double seconds() const
    {
        return static_cast<double>(cycles) / (chipFreqGHz * 1e9);
    }

    /** Sum of per-thread IPCs (throughput in instructions/cycle). */
    double aggregateIpc() const;
};

/**
 * The readings of @p result by metric path — the one schema of a run's
 * readings (`core.<i>.*`, `llc.*`, `dram.*`, `xbar.*`, `chip.*`; DESIGN.md
 * §12), read straight from the result's structs. Reports render from it.
 */
telemetry::Snapshot resultMetrics(const SimResult &result);

/** Safety limits of a run. */
struct RunLimits
{
    Cycle maxCycles = 400'000'000;
    /** Time-sharing quantum for oversubscribed context slots. */
    Cycle quantum = 5'000;
};

/**
 * The chip: cores + shared memory + global clock.
 *
 * High-level use: runMultiProgram() for the paper's multi-program
 * methodology. Low-level use (multi-threaded workloads with
 * synchronisation): construct, attach ThreadSources, and drive the same
 * `step(); jumpIdleSpan(bound);` loop as run() under an external
 * controller, calling wakeAllCores() after changing a thread's work
 * outside attach()/detach() and before collectResult() (see
 * workload/parsec).
 */
class ChipSim
{
  public:
    explicit ChipSim(const ChipConfig &config);

    const ChipConfig &config() const { return config_; }
    Cycle now() const { return now_; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    Core &core(std::uint32_t i) { return *cores_.at(i); }
    const Core &core(std::uint32_t i) const { return *cores_.at(i); }
    SharedMemory &sharedMemory() { return shared_; }

    /** Attach/detach with central active-thread bookkeeping. */
    void attach(std::uint32_t core, std::uint32_t slot, ThreadSource *t);
    ThreadSource *detach(std::uint32_t core, std::uint32_t slot);

    /** Number of threads currently attached chip-wide. */
    std::uint32_t attachedThreads() const { return attachedThreads_; }

    /** Advance one global cycle (ticks every non-quiescent core and
     * accumulates power/active-thread accounting). */
    void tick();

    /**
     * Advance one global cycle in a run loop — the one place the loops
     * choose between fast-forward and strict stepping. With fast-forward
     * on, a core that is provably idle until a known future cycle sleeps
     * instead of ticking (see jumpIdleSpan and wakeAllCores).
     */
    void step()
    {
        if (fastForward_)
            stepCores(); // idle cores sleep instead of ticking
        else
            tick();
    }

    /**
     * If every core is asleep (or dormant), jump now_ to just before the
     * earliest wake, clamped to @p bound (now_ never exceeds @p bound).
     * No-op while any core is awake — so always under strict stepping,
     * where no core sleeps. Every skipped cycle adds the current
     * attached-thread count to the active-thread histogram, as a strict
     * tick() would.
     */
    void jumpIdleSpan(Cycle bound);

    /**
     * Settle every sleeping core's deferred accounting and wake it, so
     * the chip is in the state strict ticking would have left. Run loops
     * call it on exit; a loop that drives the chip from outside calls it
     * whenever it changes a thread's work without attach()/detach()
     * (which flush their core themselves) — otherwise the thread's core
     * could sleep through the new work — and before collectResult().
     */
    void wakeAllCores();

    /**
     * Advance @p cycles global cycles event-driven: each core that is
     * provably idle until a known future cycle (all SMT contexts stalled
     * on pending fills, branch redirects or blocked ROB heads) sleeps —
     * it is not ticked, and its per-cycle accounting is bulk-replayed
     * when it wakes — and when every core sleeps, global time jumps to
     * the earliest wake. Results are bit-identical to calling tick()
     * @p cycles times; see DESIGN.md ("Event-driven fast-forward").
     */
    void run(Cycle cycles);

    /** Enable/disable fast-forward (default: on, unless the
     * SMTFLEX_NO_FASTFWD environment flag is set). */
    void setFastForward(bool on) { fastForward_ = on; }
    bool fastForwardEnabled() const { return fastForward_; }

    /** Per-core global cycles elided by fast-forward so far, summed over
     * cores (diagnostics). */
    Cycle fastForwardedCycles() const { return ffCycles_; }

    /** One thread's working set to warm (see warmAllCaches). */
    struct WarmSpec
    {
        const BenchmarkProfile *profile = nullptr;
        AddressSpace space;
        std::uint32_t core = 0;
    };

    /**
     * Functional cache warmup (sampled-simulation style): install every
     * thread's cache-resident working set into its core's private
     * hierarchy and the shared LLC, in zero simulated time. Installation
     * is interleaved across threads in chunks so that shared-cache (LLC)
     * capacity pressure evicts every thread's coldest lines evenly rather
     * than wiping out whichever thread was installed first. Streaming and
     * larger-than-LLC regions are skipped — missing is their steady state.
     *
     * Warms a fresh chip: fails loudly (FatalError) when any cache has
     * been touched. The result equals per-line SetAssocCache::install()
     * in that order, built as a cold fill (SetAssocCache::ColdFill).
     */
    void warmAllCaches(const std::vector<WarmSpec> &specs);

    /**
     * Run a multi-program workload to completion: every thread executes its
     * budget at least once (finished threads restart and keep contending).
     */
    SimResult runMultiProgram(const std::vector<ThreadSpec> &threads,
                              const Placement &placement,
                              std::uint64_t seed,
                              const RunLimits &limits = RunLimits{});

    /** Snapshot results of a low-level (externally driven) run. */
    SimResult collectResult() const;

  private:
    void validatePlacement(const Placement &placement,
                           std::size_t num_threads) const;

    /**
     * Advance one global cycle the event-driven way: tick the awake
     * cores and put newly idle ones to sleep until their next event.
     * Only called from step(); tick() stays strictly cycle-by-cycle.
     */
    void stepCores();

    /** Apply core @p i's deferred sleep span (bulk accounting of the
     * provably inert cycles since it last ticked) and wake it. Must run
     * before anything external mutates the core (attach/detach) and
     * before results are read. */
    void flushCore(std::uint32_t i);

    ChipConfig config_;
    SharedMemory shared_;
    std::vector<std::unique_ptr<Core>> cores_;
    Cycle now_ = 0;
    std::uint32_t attachedThreads_ = 0;
    /** Powered (>= 1 attached thread) cycle counters per core. */
    std::vector<Cycle> poweredCycles_;
    /** Time-weighted histogram of attached thread counts. */
    Histogram activeHistogram_;
    bool hitCycleLimit_ = false;
    /** Event-driven fast-forward (SMTFLEX_NO_FASTFWD turns it off). */
    bool fastForward_ = true;
    /** Per core: global cycle of the next strict tick while sleeping
     * (0 = awake, kCycleNever = parked dormant: skipped entirely, like
     * the strict loop skips unpowered quiescent cores), and the global
     * cycle of the last strict tick. */
    std::vector<Cycle> wake_;
    std::vector<Cycle> sleepStart_;
    /** Bitmask of awake cores, iterated in index order so same-cycle
     * memory accesses keep the strict loop's core order. Sleeping and
     * parked cores cost nothing per cycle. */
    std::vector<std::uint64_t> awakeMask_;
    /** (wake cycle, core) min-heap; entries whose wake no longer matches
     * wake_[core] are stale (the core was flushed externally) and are
     * discarded when they surface. Parked cores have no entry. */
    std::priority_queue<std::pair<Cycle, std::uint32_t>,
                        std::vector<std::pair<Cycle, std::uint32_t>>,
                        std::greater<>>
        wakeHeap_;
    Cycle ffCycles_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_SIM_CHIP_SIM_H
