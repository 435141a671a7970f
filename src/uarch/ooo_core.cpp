#include "ooo_core.h"

#include <algorithm>
#include <bit>

namespace smtflex {

OooCore::OooCore(const CoreParams &params, std::uint32_t core_id,
                 std::uint32_t num_contexts, MemorySystem *shared,
                 double chip_freq_ghz)
    : Core(params, core_id, num_contexts, shared, chip_freq_ghz)
{
}

Cycle
OooCore::nextEventCycle(Cycle global_now)
{
    skipRobStallContexts_ = 0;
    skipMshrStallContexts_ = 0;
    const std::uint32_t partition = robPartitionSize();
    Cycle event = earliestHeadCompletion(); // core cycles
    std::uint64_t rob_stalled = 0;
    std::uint64_t mshr_stalled = 0;
    // Contexts without a thread only retire, which the head completion
    // covers.
    for (std::uint32_t bits = attachedMask_; bits != 0; bits &= bits - 1) {
        Context &ctx = contexts_[std::countr_zero(bits)];
        if (ctx.frontStallUntil > coreNow_) {
            // Redirect or I-miss in progress: dispatchFrom returns before
            // touching any state until the stall expires.
            event = std::min(event, ctx.frontStallUntil);
            continue;
        }
        if (ctx.robCount >= partition) {
            // Full ROB partition: one robStallEvent per cycle, nothing
            // else; dispatch can only resume once the head retires.
            ++rob_stalled;
            continue;
        }
        if (!ctx.hasStaged) {
            if (ctx.thread->hasWork())
                return global_now + 1; // stages and dispatches next cycle
            continue; // out of work: only retirement remains
        }
        // A staged op dispatches next cycle unless it is a data access the
        // memory system keeps rejecting for MSHR exhaustion. That retry
        // loop is only analysable without probe-time rounding jitter at a
        // unit clock ratio.
        const MicroOp &op = ctx.staged;
        if ((op.cls != OpClass::kLoad && op.cls != OpClass::kStore) ||
            (op.fetchLineCross && !ctx.stagedFetchDone) ||
            clockRatio_ != 1.0) {
            return global_now + 1;
        }
        const Cycle ready =
            std::max<Cycle>(coreNow_ + 1, dependencyReady(ctx, op));
        const Cycle probe = globalFromCore(ready);
        if (!hierarchy_.wouldRejectData(probe, op.addr))
            return global_now + 1; // would dispatch next cycle
        // Rejected: one mshrStallEvent per cycle until the probe time can
        // reach the earliest outstanding fill.
        ++mshr_stalled;
        const Cycle fill = hierarchy_.earliestPendingFill(probe);
        const Cycle flip = coreFromGlobal(fill);
        event = std::min(event,
                         flip > coreNow_ + 2 ? flip - 1 : coreNow_ + 1);
    }
    skipRobStallContexts_ = rob_stalled;
    skipMshrStallContexts_ = mshr_stalled;
    return globalCycleForCoreEvent(global_now, event);
}

void
OooCore::onSkippedCoreCycles(Cycle core_cycles)
{
    // ICOUNT ordering does not touch the rotor; round-robin bumps it once
    // per core cycle.
    if (!(params_.fetchPolicy == FetchPolicy::kIcount && numContexts() > 1))
        fetchRotor_ += static_cast<std::uint32_t>(core_cycles);
    stats_.robStallEvents += skipRobStallContexts_ * core_cycles;
    stats_.mshrStallEvents += skipMshrStallContexts_ * core_cycles;
}

void
OooCore::resetFuBudgets()
{
    fuLeft_[static_cast<int>(OpClass::kIntAlu)] = params_.intUnits;
    fuLeft_[static_cast<int>(OpClass::kBranch)] = params_.intUnits;
    fuLeft_[static_cast<int>(OpClass::kIntMul)] = params_.mulUnits;
    fuLeft_[static_cast<int>(OpClass::kFpOp)] = params_.fpUnits;
    fuLeft_[static_cast<int>(OpClass::kLoad)] = params_.ldstUnits;
    fuLeft_[static_cast<int>(OpClass::kStore)] = params_.ldstUnits;
}

bool
OooCore::fuAvailable(OpClass cls) const
{
    return fuLeft_[static_cast<int>(cls)] > 0;
}

void
OooCore::consumeFu(OpClass cls)
{
    --fuLeft_[static_cast<int>(cls)];
    // Branches and simple ALU ops share the integer units; loads and stores
    // share the ld/st ports. Keep the paired budget consistent.
    if (cls == OpClass::kIntAlu)
        fuLeft_[static_cast<int>(OpClass::kBranch)] =
            fuLeft_[static_cast<int>(OpClass::kIntAlu)];
    else if (cls == OpClass::kBranch)
        fuLeft_[static_cast<int>(OpClass::kIntAlu)] =
            fuLeft_[static_cast<int>(OpClass::kBranch)];
    else if (cls == OpClass::kLoad)
        fuLeft_[static_cast<int>(OpClass::kStore)] =
            fuLeft_[static_cast<int>(OpClass::kLoad)];
    else if (cls == OpClass::kStore)
        fuLeft_[static_cast<int>(OpClass::kLoad)] =
            fuLeft_[static_cast<int>(OpClass::kStore)];
}

OooCore::StopReason
OooCore::dispatchFrom(Context &ctx, std::uint32_t &budget)
{
    const std::uint32_t partition = robPartitionSize();

    while (budget > 0) {
        if (ctx.frontStallUntil > coreNow_)
            return StopReason::kNone; // redirect in progress
        if (ctx.robCount >= partition) {
            ++stats_.robStallEvents;
            return StopReason::kRobFull;
        }

        // Stage the next op if needed.
        if (!ctx.hasStaged) {
            if (!ctx.thread || !ctx.thread->hasWork())
                return StopReason::kNoWork;
            ctx.staged = ctx.thread->nextOp();
            ctx.hasStaged = true;
            ctx.stagedFetchDone = false;
        }
        MicroOp &op = ctx.staged;

        // Instruction-cache probe for ops starting a new fetch line.
        if (op.fetchLineCross && !ctx.stagedFetchDone) {
            const MemAccess fetch =
                hierarchy_.instrAccess(globalNow_, op.fetchAddr);
            ctx.stagedFetchDone = true;
            if (fetch.level != MemLevel::kL1) {
                ctx.frontStallUntil = coreFromGlobal(fetch.completion);
                return StopReason::kNone;
            }
        }

        if (!fuAvailable(op.cls))
            return StopReason::kFuBusy;

        // Earliest execution start: dispatch next cycle, after producers.
        const Cycle ready =
            std::max<Cycle>(coreNow_ + 1, dependencyReady(ctx, op));

        Cycle completion;
        switch (op.cls) {
          case OpClass::kLoad: {
            const auto access = hierarchy_.dataAccess(
                globalFromCore(ready), op.addr, false);
            if (!access) {
                ++stats_.mshrStallEvents;
                return StopReason::kMshrFull;
            }
            completion = std::max(ready + params_.latL1,
                                  coreFromGlobal(access->completion));
            break;
          }
          case OpClass::kStore: {
            const auto access = hierarchy_.dataAccess(
                globalFromCore(ready), op.addr, true);
            if (!access) {
                ++stats_.mshrStallEvents;
                return StopReason::kMshrFull;
            }
            // The store buffer hides the fill latency from the thread.
            completion = ready + 1;
            break;
          }
          case OpClass::kIntMul:
            completion = ready + params_.latIntMul;
            break;
          case OpClass::kFpOp:
            completion = ready + params_.latFp;
            break;
          case OpClass::kBranch:
            completion = ready + params_.latBranch;
            if (op.mispredict) {
                ++stats_.mispredicts;
                ctx.frontStallUntil = completion + params_.mispredictPenalty;
            }
            break;
          default:
            completion = ready + params_.latIntAlu;
            break;
        }

        recordCompletion(ctx, completion);
        pushInFlight(ctx, completion);
        ++stats_.dispatched[static_cast<int>(op.cls)];
        consumeFu(op.cls);
        --budget;
        const bool was_mispredict =
            op.cls == OpClass::kBranch && op.mispredict;
        ctx.hasStaged = false;
        ctx.stagedFetchDone = false;
        if (was_mispredict)
            return StopReason::kNone; // no ops past an unresolved redirect
    }
    return StopReason::kNone;
}

void
OooCore::coreCycle()
{
    retireCycle(params_.width);

    resetFuBudgets();
    std::uint32_t budget = params_.width;
    const std::uint32_t n = numContexts();
    bool dispatched_any = false;
    // Fetch arbitration over the contexts with a thread attached; the
    // others would be passed over.
    const auto dispatch = [&](std::uint32_t i) {
        const std::uint32_t before = budget;
        dispatchFrom(contexts_[i], budget);
        dispatched_any |= (budget != before);
    };
    if (params_.fetchPolicy == FetchPolicy::kIcount && n > 1) {
        // ICOUNT: fewest in-flight ops first (stable by index).
        std::uint32_t order[kMaxContexts];
        std::uint32_t m = 0;
        for (std::uint32_t bits = attachedMask_; bits != 0;
             bits &= bits - 1) {
            const auto v = static_cast<std::uint32_t>(std::countr_zero(bits));
            std::uint32_t j = m++;
            while (j > 0 &&
                   contexts_[order[j - 1]].robCount > contexts_[v].robCount) {
                order[j] = order[j - 1];
                --j;
            }
            order[j] = v;
        }
        for (std::uint32_t k = 0; k < m && budget > 0; ++k)
            dispatch(order[k]);
    } else {
        for (std::uint64_t order =
                 roundRobin(attachedMask_, fetchRotor_++ % n);
             order != 0 && budget > 0; order &= order - 1)
            dispatch(std::countr_zero(order) % kMaxContexts);
    }
    stats_.busyCycles += dispatched_any;
}

} // namespace smtflex
