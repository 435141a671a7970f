/**
 * @file
 * Out-of-order SMT core model (the paper's big and medium cores).
 *
 * Cycle behaviour:
 *  - round-robin fetch/dispatch among active SMT contexts, up to `width`
 *    ops per core cycle in total (the round-robin fetch policy of Raasch &
 *    Reinhardt that the paper's SMT cores implement);
 *  - static ROB partitioning among active contexts;
 *  - dependency-aware completion timestamps (geometric dependency
 *    distances from the trace) bounded by the ROB window;
 *  - per-cycle functional-unit issue constraints (Table 1 unit mix);
 *  - loads/stores through the private hierarchy with an MSHR limit,
 *    branch-mispredict front-end redirects, I-cache miss stalls;
 *  - in-order retirement at `width` ops/cycle shared across contexts.
 */

#ifndef SMTFLEX_UARCH_OOO_CORE_H
#define SMTFLEX_UARCH_OOO_CORE_H

#include "uarch/core.h"

namespace smtflex {

/** 4-wide / 2-wide out-of-order core with SMT (Table 1 big/medium). */
class OooCore : public Core
{
  public:
    OooCore(const CoreParams &params, std::uint32_t core_id,
            std::uint32_t num_contexts, MemorySystem *shared,
            double chip_freq_ghz);

    Cycle nextEventCycle(Cycle global_now) override;

  protected:
    void coreCycle() override;
    void onSkippedCoreCycles(Cycle core_cycles) override;

  private:
    /** Why a context stopped dispatching this cycle. */
    enum class StopReason { kNone, kRobFull, kMshrFull, kFuBusy, kNoWork };

    /** Dispatch as many ops as possible from @p ctx; updates budgets.
     * @return the reason the context stopped. */
    StopReason dispatchFrom(Context &ctx, std::uint32_t &budget);

    /** Per-cycle remaining functional-unit slots. */
    std::uint32_t fuLeft_[kNumOpClasses] = {};

    /** Contexts that accrue one robStallEvent / mshrStallEvent per core
     * cycle across the span being skipped (cached by nextEventCycle for
     * the immediately following skipTicks). */
    std::uint64_t skipRobStallContexts_ = 0;
    std::uint64_t skipMshrStallContexts_ = 0;

    void resetFuBudgets();
    bool fuAvailable(OpClass cls) const;
    void consumeFu(OpClass cls);
};

} // namespace smtflex

#endif // SMTFLEX_UARCH_OOO_CORE_H
