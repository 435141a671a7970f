/**
 * @file
 * The multi-program thread: one single-threaded program of a multi-program
 * workload, following the paper's methodology — run a fixed instruction
 * budget (the SimPoint substitute), record the finish time, then restart and
 * keep generating contention until every co-runner has finished.
 *
 * An optional warmup prefix excludes the cold-start transient (empty caches)
 * from the measured window; the paper's 750M-instruction simulation points
 * amortise cold start naturally, our much shorter budgets do not.
 */

#ifndef SMTFLEX_SIM_SIM_THREAD_H
#define SMTFLEX_SIM_SIM_THREAD_H

#include <cstdint>
#include <string>

#include "common/types.h"
#include "trace/tracegen.h"
#include "uarch/thread_source.h"

namespace smtflex {

/**
 * A single-threaded program executing a synthetic trace.
 */
class SimThread : public ThreadSource
{
  public:
    /**
     * @param profile benchmark behaviour.
     * @param seed simulation seed.
     * @param global_id unique id (selects the private address space and the
     *        trace substream).
     * @param budget measured instructions (from warmup end to finish).
     * @param restart keep running (and contending) after the budget.
     * @param warmup unmeasured instructions before the measured window.
     */
    SimThread(const BenchmarkProfile &profile, std::uint64_t seed,
              std::uint32_t global_id, InstrCount budget, bool restart,
              InstrCount warmup = 0);

    MicroOp nextOp() override { return gen_.next(); }
    bool hasWork() override { return !doneForever_; }
    void onRetire(Cycle now) override;

    /**
     * Have this thread bump @p counter (once) at the exact retire that
     * completes its measured budget. Lets the simulation loop detect
     * completion in O(1) instead of scanning every thread each cycle, at
     * the same cycle granularity as the scan it replaces.
     */
    void notifyFinishTo(std::uint32_t *counter) { finishCounter_ = counter; }

    /** True once the measured budget has been retired. */
    bool finished() const { return finishCycle_ != kCycleNever; }
    /** Global cycle at which the measured window started (warmup done). */
    Cycle startCycle() const { return startCycle_; }
    /** Global cycle at which the measured budget completed. */
    Cycle finishCycle() const { return finishCycle_; }
    /** Total ops retired (including warmup and restarts). */
    InstrCount retired() const { return totalRetired_; }
    InstrCount budget() const { return budget_; }
    InstrCount warmup() const { return warmup_; }
    const std::string &benchmark() const { return gen_.profile().name; }

  private:
    TraceGenerator gen_;
    InstrCount budget_;
    InstrCount warmup_;
    bool restart_;
    InstrCount totalRetired_ = 0;
    Cycle startCycle_ = 0;
    Cycle finishCycle_ = kCycleNever;
    bool doneForever_ = false;
    std::uint32_t *finishCounter_ = nullptr;
};

} // namespace smtflex

#endif // SMTFLEX_SIM_SIM_THREAD_H
