#include "inorder_core.h"

#include <algorithm>
#include <bit>

namespace smtflex {

InOrderCore::InOrderCore(const CoreParams &params, std::uint32_t core_id,
                         std::uint32_t num_contexts, MemorySystem *shared,
                         double chip_freq_ghz)
    : Core(params, core_id, num_contexts, shared, chip_freq_ghz)
{
}

Cycle
InOrderCore::nextEventCycle(Cycle global_now)
{
    Cycle event = earliestHeadCompletion(); // core cycles
    // Contexts without a thread only retire, which the head completion
    // covers.
    for (std::uint32_t bits = attachedMask_; bits != 0; bits &= bits - 1) {
        const Context &ctx = contexts_[std::countr_zero(bits)];
        if (ctx.stallUntil > coreNow_) {
            // Sleeping on a RAW hazard, an off-core miss, an I-miss or a
            // flush: the barrel scheduler passes this context over without
            // touching anything until the stall expires.
            event = std::min(event, ctx.stallUntil);
            continue;
        }
        if (ctx.robCount >= ctx.rob.size())
            continue; // pipeline buffer full: drains at head completion
        if (ctx.hasStaged || ctx.thread->hasWork())
            return global_now + 1; // may win the issue slot next cycle
        // Attached but out of work: only retirement remains.
    }
    return globalCycleForCoreEvent(global_now, event);
}

void
InOrderCore::onSkippedCoreCycles(Cycle core_cycles)
{
    // Barrel rotation advances every core cycle, issued or not.
    fetchRotor_ += static_cast<std::uint32_t>(core_cycles);
}

std::uint32_t
InOrderCore::issueFrom(Context &ctx)
{
    std::uint32_t issued = 0;
    std::uint32_t ldst_left = params_.ldstUnits;
    std::uint32_t mul_left = params_.mulUnits;
    std::uint32_t fp_left = params_.fpUnits;

    while (issued < params_.width) {
        // The retirement buffer is small; treat it as a structural limit.
        if (ctx.robCount >= ctx.rob.size())
            break;

        if (!ctx.hasStaged) {
            if (!ctx.thread || !ctx.thread->hasWork())
                break;
            ctx.staged = ctx.thread->nextOp();
            ctx.hasStaged = true;
            ctx.stagedFetchDone = false;
        }
        MicroOp &op = ctx.staged;

        // Instruction fetch; a miss stalls this context.
        if (op.fetchLineCross && !ctx.stagedFetchDone) {
            const MemAccess fetch =
                hierarchy_.instrAccess(globalNow_, op.fetchAddr);
            ctx.stagedFetchDone = true;
            if (fetch.level != MemLevel::kL1) {
                ctx.stallUntil = coreFromGlobal(fetch.completion);
                break;
            }
        }

        // In-order RAW stall: the producer must have completed.
        const Cycle dep_ready = dependencyReady(ctx, op);
        if (dep_ready > coreNow_) {
            // Sleep until the producer finishes so the other FGMT context
            // can use the issue slots meanwhile.
            ctx.stallUntil = dep_ready;
            break;
        }

        // Functional units (within this cycle's issue group).
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
            break; // int/branch: width is the only limit on a 2-int core
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
            if (access->level == MemLevel::kBeyond) {
                // Stall-on-miss: a simple in-order pipeline does not
                // overlap off-core misses with execution.
                ctx.stallUntil = completion;
            }
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
            completion = coreNow_ + 1; // store buffer
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
            break; // mispredict or stall-on-miss ends the issue group
    }
    return issued;
}

void
InOrderCore::coreCycle()
{
    retireCycle(params_.width);

    // Barrel scheduling: rotate every cycle; the first ready context with
    // a thread attached wins the whole issue group this cycle.
    for (std::uint64_t order =
             roundRobin(attachedMask_, fetchRotor_++ % numContexts());
         order != 0; order &= order - 1) {
        Context &ctx = contexts_[std::countr_zero(order) % kMaxContexts];
        if (ctx.stallUntil > coreNow_)
            continue;
        if (issueFrom(ctx) > 0) {
            ++stats_.busyCycles;
            break;
        }
        // A context that could not issue (e.g. just went to sleep on a RAW
        // stall) passes the slot on.
        if (ctx.stallUntil <= coreNow_)
            break; // structural block with no sleep: slot is lost
    }
}

} // namespace smtflex
