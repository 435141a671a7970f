/**
 * @file
 * Base class of the cycle-level core models: SMT context bookkeeping,
 * in-order retirement, clock-domain conversion, and statistics. The
 * out-of-order (OooCore) and in-order (InOrderCore) models derive from it.
 */

#ifndef SMTFLEX_UARCH_CORE_H
#define SMTFLEX_UARCH_CORE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "telemetry/registry.h"
#include "trace/uop.h"
#include "uarch/core_params.h"
#include "uarch/private_hierarchy.h"
#include "uarch/thread_source.h"

namespace smtflex {

/** Per-core activity counters (timing + power accounting inputs). */
struct CoreStats
{
    /** Core cycles executed while the core had at least one thread. */
    std::uint64_t coreCycles = 0;
    /** Core cycles in which at least one op dispatched. */
    std::uint64_t busyCycles = 0;
    /** Dispatched op counts per OpClass. */
    std::uint64_t dispatched[kNumOpClasses] = {};
    /** Ops retired. */
    std::uint64_t retired = 0;
    /** Mispredicted branches dispatched. */
    std::uint64_t mispredicts = 0;
    /** Core cycles in which a context wanted to dispatch but its ROB
     * partition was full (long-latency miss shadow). */
    std::uint64_t robStallEvents = 0;
    /** Dispatch attempts rejected because all MSHRs were busy. */
    std::uint64_t mshrStallEvents = 0;

    std::uint64_t totalDispatched() const
    {
        std::uint64_t sum = 0;
        for (const auto d : dispatched)
            sum += d;
        return sum;
    }

    /** The telemetry field list for the scalar counters — the dispatched[]
     * array registers separately under `dispatch.<op_class>`. */
    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("core_cycles", &CoreStats::coreCycles);
        f("busy_cycles", &CoreStats::busyCycles);
        f("retired", &CoreStats::retired);
        f("mispredicts", &CoreStats::mispredicts);
        f("rob_stall_events", &CoreStats::robStallEvents);
        f("mshr_stall_events", &CoreStats::mshrStallEvents);
    }
};

/**
 * A hardware core with SMT contexts, attached to the shared memory system.
 *
 * Time: the chip (uncore) runs at a global clock; the core may run at a
 * different frequency (Section 8.1 "hf" variants). tick() is called once per
 * global cycle and internally advances zero or more core cycles.
 */
class Core : public telemetry::StatsProvider<CoreStats>
{
  public:
    /**
     * @param params microarchitecture parameters.
     * @param core_id index within the chip (for the shared memory system).
     * @param num_contexts SMT contexts exposed (1 = SMT disabled);
     *        must not exceed params.maxSmtContexts.
     * @param shared shared memory system (not owned).
     * @param chip_freq_ghz global clock the uncore runs at.
     */
    Core(const CoreParams &params, std::uint32_t core_id,
         std::uint32_t num_contexts, MemorySystem *shared,
         double chip_freq_ghz);
    virtual ~Core() = default;

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    std::uint32_t coreId() const { return coreId_; }
    const CoreParams &params() const { return params_; }
    std::uint32_t numContexts() const
    {
        return static_cast<std::uint32_t>(contexts_.size());
    }

    /** Attach a thread to context @p slot (must be empty). */
    void attachThread(std::uint32_t slot, ThreadSource *thread);

    /** Detach and return the thread at @p slot (may be null). In-flight ops
     * of the detached thread still retire to it. */
    ThreadSource *detachThread(std::uint32_t slot);

    ThreadSource *threadAt(std::uint32_t slot) const;

    /** Number of contexts with a thread attached. */
    std::uint32_t activeContexts() const { return activeContexts_; }

    /** True when no thread is attached and no op is in flight. */
    bool quiescent() const { return (attachedMask_ | inFlightMask_) == 0; }

    /** Advance the core by one global cycle. */
    void tick(Cycle global_now);

    /**
     * Conservative earliest global cycle at which this core could dispatch,
     * retire an op, or otherwise change architectural or statistics state.
     * Every global cycle strictly before the returned one is provably
     * inert: ticking through it would only advance cycle counters, the
     * round-robin rotors, and per-cycle stall-event counters — exactly the
     * effects skipTicks() replays in bulk. Returns global_now + 1 when the
     * core may act on the very next cycle (no skip possible) and
     * kCycleNever when the core is idle with nothing in flight.
     *
     * Must be called with @p global_now equal to the core's last ticked
     * cycle, and immediately before any skipTicks() call: the
     * classification of stalled contexts it caches is what
     * onSkippedCoreCycles() replays.
     */
    virtual Cycle nextEventCycle(Cycle global_now)
    {
        return global_now + 1; // models without a fast-forward analysis
    }

    /**
     * Bulk-advance @p count global cycles, all of which must lie strictly
     * before the cycle returned by an immediately preceding
     * nextEventCycle() call. Replays exactly what @p count tick() calls
     * would have done on a provably inert core, including the exact
     * floating-point clock-accumulator sequence for non-unit clock ratios.
     */
    void skipTicks(Cycle count);

    PrivateHierarchy &hierarchy() { return hierarchy_; }
    const PrivateHierarchy &hierarchy() const { return hierarchy_; }

    /** Core-cycles actually executed (for utilisation/power). */
    Cycle coreNow() const { return coreNow_; }

  protected:
    /** One retirement-queue entry. */
    struct InFlightOp
    {
        Cycle completion = 0; ///< core cycles
        ThreadSource *thread = nullptr;
    };

    /** Per-SMT-context state shared by both core models. */
    struct Context
    {
        ThreadSource *thread = nullptr;

        /** Staged op that could not dispatch yet (nothing is ever
         * "ungenerated"). */
        MicroOp staged{};
        bool hasStaged = false;
        /** I-cache probe for the staged op already performed. */
        bool stagedFetchDone = false;

        /** Front-end unavailable until this core cycle (mispredict redirect
         * or I-cache miss). */
        Cycle frontStallUntil = 0;
        /** In-order models: whole context stalled until this core cycle. */
        Cycle stallUntil = 0;

        /** Dependency window: completion cycle of recent producers. */
        static constexpr std::uint32_t kDepWindow = 64;
        Cycle depCompletion[kDepWindow] = {};
        std::uint64_t opIndex = 0;

        /** Retirement queue (ROB partition / in-order pipeline buffer). */
        std::vector<InFlightOp> rob;
        std::uint32_t robHead = 0;
        std::uint32_t robCount = 0;

        /** This context's bit in the occupancy masks (1 << slot). */
        std::uint32_t bit = 0;
    };

    /** Largest context count the 32-bit occupancy masks can hold. */
    static constexpr std::uint32_t kMaxContexts = 32;

    /**
     * The set bits of @p mask in round-robin order from bit @p first:
     * first, first + 1, ..., then the bits below first. Pop them lowest
     * first (std::countr_zero, then clear); bit b stands for context
     * b % 32. Visiting only occupied contexts in this order is the full
     * scan from @p first with the empty contexts left out.
     */
    static std::uint64_t roundRobin(std::uint32_t mask, std::uint32_t first)
    {
        const std::uint32_t below =
            mask & ((std::uint32_t{1} << first) - 1);
        return (mask ^ below) | (std::uint64_t{below} << kMaxContexts);
    }

    /** Advance the model by one core cycle (coreNow_ already updated). */
    virtual void coreCycle() = 0;

    /**
     * Replay the model-specific per-cycle effects of @p core_cycles inert
     * core cycles (fetch rotor, stall-event accrual). Called by
     * skipTicks() after the shared counters have been advanced; the
     * context classification cached by the last nextEventCycle() call is
     * still valid because no context changes state inside a skipped span.
     */
    virtual void onSkippedCoreCycles(Cycle core_cycles)
    {
        (void)core_cycles;
    }

    /** Earliest core cycle any context could retire its ROB head
     * (kCycleNever when nothing is in flight). */
    Cycle earliestHeadCompletion() const;

    /**
     * First global cycle whose tick() would reach core cycle
     * @p core_event, estimated conservatively (never late, possibly a
     * cycle or two early) for non-unit clock ratios. Returns
     * global_now + 1 for overdue events and kCycleNever for kCycleNever.
     */
    Cycle globalCycleForCoreEvent(Cycle global_now, Cycle core_event) const;

    /** Retire up to @p budget completed ops across contexts (in order per
     * context, round-robin across contexts). Returns ops retired. */
    std::uint32_t retireCycle(std::uint32_t budget);

    /** Push an op into @p ctx's retirement queue. */
    void pushInFlight(Context &ctx, Cycle completion);

    /** ROB partition size given current active contexts (>= 4). */
    std::uint32_t robPartitionSize() const { return robPartition_; }

    /** Convert a future core-cycle ready time to a global cycle. */
    Cycle globalFromCore(Cycle core_future) const;
    /** Convert a future global completion to a core cycle. */
    Cycle coreFromGlobal(Cycle global_future) const;

    /** Record the completion of op production for dependencies. */
    static void recordCompletion(Context &ctx, Cycle completion);
    /** Earliest core cycle the staged op's producer allows. */
    static Cycle dependencyReady(const Context &ctx, const MicroOp &op);

    CoreParams params_;
    std::uint32_t coreId_;
    MemorySystem *shared_;
    PrivateHierarchy hierarchy_;
    std::vector<Context> contexts_;

    Cycle globalNow_ = 0;
    Cycle coreNow_ = 0;
    /** Core cycles per global cycle. */
    double clockRatio_ = 1.0;
    double clockAccum_ = 0.0;

    /** Round-robin rotors. */
    std::uint32_t fetchRotor_ = 0;
    std::uint32_t retireRotor_ = 0;

    /** Contexts with a thread attached (kept by attach and detach). A
     * staged op implies an attached thread, so these are the contexts
     * dispatch visits; the others are skipped by every scan. */
    std::uint32_t attachedMask_ = 0;
    /** Contexts with ops in flight: set by pushInFlight, cleared when
     * retireCycle drains a context's queue. */
    std::uint32_t inFlightMask_ = 0;

  private:
    /** Recount the attached threads after a context's thread changed. */
    void countActiveContexts();

    /** Contexts with a thread attached, and the ROB partition it gives:
     * kept by attach and detach. */
    std::uint32_t activeContexts_ = 0;
    std::uint32_t robPartition_ = 0;
};

/** Construct the matching model (OooCore or InOrderCore) for @p params. */
std::unique_ptr<Core> makeCore(const CoreParams &params,
                               std::uint32_t core_id,
                               std::uint32_t num_contexts,
                               MemorySystem *shared, double chip_freq_ghz);

} // namespace smtflex

#endif // SMTFLEX_UARCH_CORE_H
