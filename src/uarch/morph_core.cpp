#include "morph_core.h"

#include <algorithm>

#include "common/log.h"

namespace smtflex {

// The two cycle bodies deliberately mirror OooCore and InOrderCore (see
// those files for the commented versions); MorphCore's contribution is the
// mode controller that arbitrates between them.

MorphCore::MorphCore(const CoreParams &params, const MorphParams &morph,
                     std::uint32_t core_id, std::uint32_t num_contexts,
                     MemorySystem *shared, double chip_freq_ghz)
    : Core(params, core_id, num_contexts, shared, chip_freq_ghz),
      morph_(morph)
{
    if (!params.outOfOrder)
        fatal("MorphCore: the base personality must be out-of-order");
    if (morph_.oooThreadLimit == 0)
        fatal("MorphCore: oooThreadLimit must be >= 1");
}

void
MorphCore::resetFuBudgets()
{
    fuLeft_[static_cast<int>(OpClass::kIntAlu)] = params_.intUnits;
    fuLeft_[static_cast<int>(OpClass::kBranch)] = params_.intUnits;
    fuLeft_[static_cast<int>(OpClass::kIntMul)] = params_.mulUnits;
    fuLeft_[static_cast<int>(OpClass::kFpOp)] = params_.fpUnits;
    fuLeft_[static_cast<int>(OpClass::kLoad)] = params_.ldstUnits;
    fuLeft_[static_cast<int>(OpClass::kStore)] = params_.ldstUnits;
}

bool
MorphCore::fuAvailable(OpClass cls) const
{
    return fuLeft_[static_cast<int>(cls)] > 0;
}

void
MorphCore::consumeFu(OpClass cls)
{
    --fuLeft_[static_cast<int>(cls)];
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

Cycle
MorphCore::nextEventCycle(Cycle global_now)
{
    skipRobStallContexts_ = 0;
    skipMshrStallContexts_ = 0;
    const bool want_ooo = activeContexts() <= morph_.oooThreadLimit;
    if (want_ooo != oooMode_) {
        // Draining before a mode switch: only retirement happens, and the
        // switch itself fires on the first cycle with nothing in flight.
        const Cycle head = earliestHeadCompletion();
        if (head == kCycleNever)
            return global_now + 1; // switches next cycle
        return globalCycleForCoreEvent(global_now, head);
    }
    if (stallUntilSwitch_ > coreNow_) {
        // Refilling after a switch: retirement only until the penalty
        // expires.
        const Cycle event =
            std::min(earliestHeadCompletion(), stallUntilSwitch_);
        return globalCycleForCoreEvent(global_now, event);
    }
    return oooMode_ ? nextEventOoo(global_now) : nextEventInOrder(global_now);
}

Cycle
MorphCore::nextEventOoo(Cycle global_now)
{
    // Mirrors OooCore::nextEventCycle for the out-of-order personality
    // (always round-robin, same stall accrual as oooCycle()).
    const std::uint32_t partition = robPartitionSize();
    Cycle event = earliestHeadCompletion();
    std::uint64_t rob_stalled = 0;
    std::uint64_t mshr_stalled = 0;
    for (auto &ctx : contexts_) {
        if (!ctx.thread && !ctx.hasStaged)
            continue;
        if (ctx.frontStallUntil > coreNow_) {
            event = std::min(event, ctx.frontStallUntil);
            continue;
        }
        if (ctx.robCount >= partition) {
            ++rob_stalled;
            continue;
        }
        if (!ctx.hasStaged) {
            if (ctx.thread && ctx.thread->hasWork())
                return global_now + 1;
            continue;
        }
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
            return global_now + 1;
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

Cycle
MorphCore::nextEventInOrder(Cycle global_now)
{
    // Mirrors InOrderCore::nextEventCycle, with issueInOrderFrom()'s
    // 16-entry in-order window as the structural limit.
    constexpr std::uint32_t kInOrderWindow = 16;
    Cycle event = earliestHeadCompletion();
    for (auto &ctx : contexts_) {
        if (!ctx.thread && !ctx.hasStaged)
            continue;
        if (ctx.stallUntil > coreNow_) {
            event = std::min(event, ctx.stallUntil);
            continue;
        }
        if (ctx.robCount >=
            std::min<std::size_t>(kInOrderWindow, ctx.rob.size()))
            continue;
        if (ctx.hasStaged || (ctx.thread && ctx.thread->hasWork()))
            return global_now + 1;
    }
    return globalCycleForCoreEvent(global_now, event);
}

void
MorphCore::onSkippedCoreCycles(Cycle core_cycles)
{
    const bool want_ooo = activeContexts() <= morph_.oooThreadLimit;
    if (want_ooo != oooMode_ || stallUntilSwitch_ > coreNow_)
        return; // draining or refilling: the dispatch stages never ran
    fetchRotor_ += static_cast<std::uint32_t>(core_cycles);
    stats_.robStallEvents += skipRobStallContexts_ * core_cycles;
    stats_.mshrStallEvents += skipMshrStallContexts_ * core_cycles;
}

void
MorphCore::coreCycle()
{
    retireCycle(params_.width);

    // Mode controller: when the active thread count crosses the limit,
    // stop dispatching, drain the in-flight ops, then morph and pay the
    // reconfiguration penalty.
    const bool want_ooo = activeContexts() <= morph_.oooThreadLimit;
    if (want_ooo != oooMode_) {
        if (inFlightMask_ == 0) {
            oooMode_ = want_ooo;
            ++modeSwitches_;
            stallUntilSwitch_ = coreNow_ + morph_.switchPenalty;
        }
        return; // draining (or just switched): no dispatch this cycle
    }
    if (stallUntilSwitch_ > coreNow_)
        return; // refilling after the switch

    if (oooMode_)
        oooCycle();
    else
        inOrderCycle();
}

void
MorphCore::oooCycle()
{
    resetFuBudgets();
    std::uint32_t budget = params_.width;
    const std::uint32_t n = numContexts();
    std::uint32_t c = fetchRotor_++ % n;
    bool dispatched_any = false;

    for (std::uint32_t k = 0; k < n && budget > 0; ++k) {
        Context &ctx = contexts_[c];
        if (++c == n)
            c = 0;
        if (!ctx.thread && !ctx.hasStaged)
            continue;
        const std::uint32_t partition = robPartitionSize();
        while (budget > 0) {
            if (ctx.frontStallUntil > coreNow_)
                break;
            if (ctx.robCount >= partition) {
                ++stats_.robStallEvents;
                break;
            }
            if (!ctx.hasStaged) {
                if (!ctx.thread || !ctx.thread->hasWork())
                    break;
                ctx.staged = ctx.thread->nextOp();
                ctx.hasStaged = true;
                ctx.stagedFetchDone = false;
            }
            MicroOp &op = ctx.staged;
            if (op.fetchLineCross && !ctx.stagedFetchDone) {
                const MemAccess fetch =
                    hierarchy_.instrAccess(globalNow_, op.fetchAddr);
                ctx.stagedFetchDone = true;
                if (fetch.level != MemLevel::kL1) {
                    ctx.frontStallUntil = coreFromGlobal(fetch.completion);
                    break;
                }
            }
            if (!fuAvailable(op.cls))
                break;
            const Cycle ready =
                std::max<Cycle>(coreNow_ + 1, dependencyReady(ctx, op));
            Cycle completion;
            bool reject = false;
            switch (op.cls) {
              case OpClass::kLoad: {
                const auto access = hierarchy_.dataAccess(
                    globalFromCore(ready), op.addr, false);
                if (!access) {
                    ++stats_.mshrStallEvents;
                    reject = true;
                    completion = 0;
                    break;
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
                    reject = true;
                    completion = 0;
                    break;
                }
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
                    ctx.frontStallUntil =
                        completion + params_.mispredictPenalty;
                }
                break;
              default:
                completion = ready + params_.latIntAlu;
                break;
            }
            if (reject)
                break;
            recordCompletion(ctx, completion);
            pushInFlight(ctx, completion);
            ++stats_.dispatched[static_cast<int>(op.cls)];
            consumeFu(op.cls);
            --budget;
            dispatched_any = true;
            const bool was_mispredict =
                op.cls == OpClass::kBranch && op.mispredict;
            ctx.hasStaged = false;
            ctx.stagedFetchDone = false;
            if (was_mispredict)
                break;
        }
    }
    stats_.busyCycles += dispatched_any;
}

std::uint32_t
MorphCore::issueInOrderFrom(Context &ctx)
{
    std::uint32_t issued = 0;
    std::uint32_t ldst_left = params_.ldstUnits;
    std::uint32_t mul_left = params_.mulUnits;
    std::uint32_t fp_left = params_.fpUnits;

    // In-order mode keeps only a short pipeline's worth of ops in flight
    // (the ROB storage is repurposed; cf. InOrderCore's 16-entry buffer).
    constexpr std::uint32_t kInOrderWindow = 16;
    while (issued < params_.width) {
        if (ctx.robCount >= std::min<std::size_t>(kInOrderWindow,
                                                  ctx.rob.size()))
            break;
        if (!ctx.hasStaged) {
            if (!ctx.thread || !ctx.thread->hasWork())
                break;
            ctx.staged = ctx.thread->nextOp();
            ctx.hasStaged = true;
            ctx.stagedFetchDone = false;
        }
        MicroOp &op = ctx.staged;
        if (op.fetchLineCross && !ctx.stagedFetchDone) {
            const MemAccess fetch =
                hierarchy_.instrAccess(globalNow_, op.fetchAddr);
            ctx.stagedFetchDone = true;
            if (fetch.level != MemLevel::kL1) {
                ctx.stallUntil = coreFromGlobal(fetch.completion);
                break;
            }
        }
        const Cycle dep_ready = dependencyReady(ctx, op);
        if (dep_ready > coreNow_) {
            ctx.stallUntil = dep_ready;
            break;
        }
        bool fu_ok = true;
        switch (op.cls) {
          case OpClass::kLoad:
          case OpClass::kStore:
            fu_ok = ldst_left > 0;
            break;
          case OpClass::kIntMul:
            fu_ok = mul_left > 0;
            break;
          case OpClass::kFpOp:
            fu_ok = fp_left > 0;
            break;
          default:
            break;
        }
        if (!fu_ok)
            break;
        Cycle completion;
        switch (op.cls) {
          case OpClass::kLoad: {
            const auto access =
                hierarchy_.dataAccess(globalNow_, op.addr, false);
            if (!access) {
                ++stats_.mshrStallEvents;
                ctx.stallUntil = coreNow_ + 2;
                return issued;
            }
            completion = std::max<Cycle>(coreNow_ + params_.latL1,
                                         coreFromGlobal(access->completion));
            if (access->level == MemLevel::kBeyond)
                ctx.stallUntil = completion;
            --ldst_left;
            break;
          }
          case OpClass::kStore: {
            const auto access =
                hierarchy_.dataAccess(globalNow_, op.addr, true);
            if (!access) {
                ++stats_.mshrStallEvents;
                ctx.stallUntil = coreNow_ + 2;
                return issued;
            }
            completion = coreNow_ + 1;
            --ldst_left;
            break;
          }
          case OpClass::kIntMul:
            completion = coreNow_ + params_.latIntMul;
            --mul_left;
            break;
          case OpClass::kFpOp:
            completion = coreNow_ + params_.latFp;
            --fp_left;
            break;
          case OpClass::kBranch:
            completion = coreNow_ + params_.latBranch;
            if (op.mispredict) {
                ++stats_.mispredicts;
                ctx.stallUntil = completion + params_.mispredictPenalty;
            }
            break;
          default:
            completion = coreNow_ + params_.latIntAlu;
            break;
        }
        recordCompletion(ctx, completion);
        pushInFlight(ctx, completion);
        ++stats_.dispatched[static_cast<int>(op.cls)];
        ++issued;
        const bool redirect = ctx.stallUntil > coreNow_;
        ctx.hasStaged = false;
        ctx.stagedFetchDone = false;
        if (redirect)
            break;
    }
    return issued;
}

void
MorphCore::inOrderCycle()
{
    const std::uint32_t n = numContexts();
    std::uint32_t c = fetchRotor_++ % n;
    for (std::uint32_t k = 0; k < n; ++k) {
        Context &ctx = contexts_[c];
        if (++c == n)
            c = 0;
        if (!ctx.thread && !ctx.hasStaged)
            continue;
        if (ctx.stallUntil > coreNow_)
            continue;
        if (issueInOrderFrom(ctx) > 0) {
            ++stats_.busyCycles;
            break;
        }
        if (ctx.stallUntil <= coreNow_)
            break;
    }
}

} // namespace smtflex
