#include "core.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.h"
#include "uarch/inorder_core.h"
#include "uarch/ooo_core.h"

namespace smtflex {

Core::Core(const CoreParams &params, std::uint32_t core_id,
           std::uint32_t num_contexts, MemorySystem *shared,
           double chip_freq_ghz)
    : params_(params), coreId_(core_id), shared_(shared),
      hierarchy_(params, core_id, shared)
{
    params_.validate();
    if (num_contexts == 0 || num_contexts > params_.maxSmtContexts)
        fatal("Core ", params_.name, ": invalid context count ",
              num_contexts, " (max ", params_.maxSmtContexts, ")");
    if (num_contexts > kMaxContexts)
        fatal("Core ", params_.name, ": ", num_contexts,
              " contexts exceed the ", kMaxContexts,
              "-context occupancy masks");
    if (chip_freq_ghz <= 0.0)
        fatal("Core ", params_.name, ": bad chip frequency");

    clockRatio_ = params_.freqGHz / chip_freq_ghz;

    // Retirement queue capacity: the full ROB for OoO (one context may own
    // it all), a short pipeline buffer for in-order.
    const std::uint32_t queue_capacity =
        params_.outOfOrder ? params_.robSize : 16;
    contexts_.resize(num_contexts);
    for (std::uint32_t i = 0; i < num_contexts; ++i) {
        contexts_[i].rob.resize(queue_capacity);
        contexts_[i].bit = std::uint32_t{1} << i;
    }
    countActiveContexts();
}

void
Core::countActiveContexts()
{
    activeContexts_ = static_cast<std::uint32_t>(std::popcount(attachedMask_));
    // Static partitioning among the contexts that currently have threads
    // (Raasch & Reinhardt); a lone thread gets the whole window.
    const std::uint32_t share = params_.robSize / std::max(1u, activeContexts_);
    robPartition_ = std::max(4u, share);
}

void
Core::attachThread(std::uint32_t slot, ThreadSource *thread)
{
    if (slot >= contexts_.size())
        fatal("Core ", params_.name, ": attach to bad slot ", slot);
    if (contexts_[slot].thread)
        fatal("Core ", params_.name, ": slot ", slot, " already occupied");
    if (!thread)
        fatal("Core ", params_.name, ": attach of null thread");
    contexts_[slot].thread = thread;
    attachedMask_ |= contexts_[slot].bit;
    countActiveContexts();
}

ThreadSource *
Core::detachThread(std::uint32_t slot)
{
    if (slot >= contexts_.size())
        fatal("Core ", params_.name, ": detach from bad slot ", slot);
    Context &ctx = contexts_[slot];
    ThreadSource *old = ctx.thread;
    ctx.thread = nullptr;
    attachedMask_ &= ~ctx.bit;
    // Drop the staged (never dispatched) op; in-flight ops keep retiring to
    // the detached thread through the InFlightOp::thread pointers.
    if (ctx.hasStaged && old)
        old->onStagedOpDropped();
    ctx.hasStaged = false;
    ctx.stagedFetchDone = false;
    countActiveContexts();
    return old;
}

ThreadSource *
Core::threadAt(std::uint32_t slot) const
{
    if (slot >= contexts_.size())
        fatal("Core ", params_.name, ": bad slot ", slot);
    return contexts_[slot].thread;
}

void
Core::tick(Cycle global_now)
{
    globalNow_ = global_now;
    clockAccum_ += clockRatio_;
    while (clockAccum_ >= 1.0) {
        clockAccum_ -= 1.0;
        ++coreNow_;
        ++stats_.coreCycles;
        coreCycle();
    }
}

void
Core::skipTicks(Cycle count)
{
    if (count == 0)
        return;
    Cycle core_cycles;
    if (clockRatio_ == 1.0) {
        // The accumulator is a fixed point at ratio 1: each tick adds and
        // removes exactly 1.0, so bulk arithmetic is bit-identical.
        core_cycles = count;
    } else {
        // Replay the exact per-tick accumulator sequence: analytic
        // multiplication would round differently and desynchronise the
        // core clock from a strict run.
        core_cycles = 0;
        for (Cycle g = 0; g < count; ++g) {
            clockAccum_ += clockRatio_;
            while (clockAccum_ >= 1.0) {
                clockAccum_ -= 1.0;
                ++core_cycles;
            }
        }
    }
    globalNow_ += count;
    coreNow_ += core_cycles;
    stats_.coreCycles += core_cycles;
    // retireCycle() bumps the rotor once per core cycle even when nothing
    // retires; uint32 truncation matches its modular wraparound.
    retireRotor_ += static_cast<std::uint32_t>(core_cycles);
    onSkippedCoreCycles(core_cycles);
}

Cycle
Core::earliestHeadCompletion() const
{
    Cycle earliest = kCycleNever;
    for (std::uint32_t bits = inFlightMask_; bits != 0; bits &= bits - 1) {
        const Context &ctx = contexts_[std::countr_zero(bits)];
        earliest = std::min(earliest, ctx.rob[ctx.robHead].completion);
    }
    return earliest;
}

Cycle
Core::globalCycleForCoreEvent(Cycle global_now, Cycle core_event) const
{
    if (core_event == kCycleNever)
        return kCycleNever;
    if (core_event <= coreNow_)
        return global_now + 1;
    const Cycle dc = core_event - coreNow_;
    if (clockRatio_ == 1.0)
        return global_now + dc;
    // Under-estimate (skip less, never more): truncate, then keep one
    // whole-cycle margin against accumulated floating-point drift. A too
    // early estimate only costs an extra strict (but inert) tick before
    // the next estimate converges.
    const double dg =
        (static_cast<double>(dc) - clockAccum_) / clockRatio_;
    if (dg <= 2.0)
        return global_now + 1;
    return global_now + static_cast<Cycle>(dg) - 1;
}

std::uint32_t
Core::retireCycle(std::uint32_t budget)
{
    std::uint32_t retired = 0;
    // The rotor's own `% n` stays: it wraps at 2^32 and skipTicks()
    // advances it in bulk. Contexts with nothing in flight are skipped.
    for (std::uint64_t order =
             roundRobin(inFlightMask_, retireRotor_++ % numContexts());
         order != 0 && retired < budget; order &= order - 1) {
        Context &ctx = contexts_[std::countr_zero(order) % kMaxContexts];
        const auto capacity = static_cast<std::uint32_t>(ctx.rob.size());
        while (retired < budget && ctx.robCount > 0) {
            InFlightOp &head = ctx.rob[ctx.robHead];
            if (head.completion > coreNow_)
                break; // in-order retirement: head blocks the rest
            if (head.thread)
                head.thread->onRetire(globalNow_);
            if (++ctx.robHead == capacity)
                ctx.robHead = 0;
            --ctx.robCount;
            ++retired;
        }
        if (ctx.robCount == 0)
            inFlightMask_ &= ~ctx.bit;
    }
    stats_.retired += retired;
    return retired;
}

void
Core::pushInFlight(Context &ctx, Cycle completion)
{
    const auto capacity = static_cast<std::uint32_t>(ctx.rob.size());
    if (ctx.robCount >= capacity)
        panic("Core ", params_.name, ": retirement queue overflow");
    // robHead < capacity and robCount < capacity: one wrap at most.
    std::uint32_t tail = ctx.robHead + ctx.robCount;
    if (tail >= capacity)
        tail -= capacity;
    ctx.rob[tail].completion = completion;
    ctx.rob[tail].thread = ctx.thread;
    ++ctx.robCount;
    inFlightMask_ |= ctx.bit;
}

Cycle
Core::globalFromCore(Cycle core_future) const
{
    if (clockRatio_ == 1.0)
        return globalNow_ + (core_future - coreNow_);
    const double dg =
        static_cast<double>(core_future - coreNow_) / clockRatio_;
    return globalNow_ + static_cast<Cycle>(std::llround(dg));
}

Cycle
Core::coreFromGlobal(Cycle global_future) const
{
    if (global_future <= globalNow_)
        return coreNow_;
    if (clockRatio_ == 1.0)
        return coreNow_ + (global_future - globalNow_);
    const double dc =
        static_cast<double>(global_future - globalNow_) * clockRatio_;
    return coreNow_ + static_cast<Cycle>(std::ceil(dc));
}

void
Core::recordCompletion(Context &ctx, Cycle completion)
{
    ctx.depCompletion[ctx.opIndex % Context::kDepWindow] = completion;
    ++ctx.opIndex;
}

Cycle
Core::dependencyReady(const Context &ctx, const MicroOp &op)
{
    if (op.depDist == 0 || op.depDist >= Context::kDepWindow ||
        op.depDist > ctx.opIndex) {
        return 0;
    }
    const std::uint64_t producer = ctx.opIndex - op.depDist;
    return ctx.depCompletion[producer % Context::kDepWindow];
}

std::unique_ptr<Core>
makeCore(const CoreParams &params, std::uint32_t core_id,
         std::uint32_t num_contexts, MemorySystem *shared,
         double chip_freq_ghz)
{
    if (params.outOfOrder) {
        return std::make_unique<OooCore>(params, core_id, num_contexts,
                                         shared, chip_freq_ghz);
    }
    return std::make_unique<InOrderCore>(params, core_id, num_contexts,
                                         shared, chip_freq_ghz);
}

} // namespace smtflex
