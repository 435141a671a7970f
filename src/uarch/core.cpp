#include "core.h"

#include <algorithm>
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
    if (chip_freq_ghz <= 0.0)
        fatal("Core ", params_.name, ": bad chip frequency");

    clockRatio_ = params_.freqGHz / chip_freq_ghz;

    // Retirement queue capacity: the full ROB for OoO (one context may own
    // it all), a short pipeline buffer for in-order.
    const std::uint32_t queue_capacity =
        params_.outOfOrder ? params_.robSize : 16;
    contexts_.resize(num_contexts);
    for (auto &ctx : contexts_)
        ctx.rob.resize(queue_capacity);
    countActiveContexts();
}

void
Core::countActiveContexts()
{
    activeContexts_ = 0;
    for (const auto &ctx : contexts_)
        activeContexts_ += (ctx.thread != nullptr);
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

bool
Core::quiescent() const
{
    for (const auto &ctx : contexts_) {
        if (ctx.thread || ctx.robCount > 0)
            return false;
    }
    return true;
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
    for (const auto &ctx : contexts_) {
        if (ctx.robCount > 0)
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
    const std::uint32_t n = numContexts();
    // The rotor's own `% n` stays: it wraps at 2^32 and skipTicks()
    // advances it in bulk.
    std::uint32_t c = retireRotor_++ % n;
    for (std::uint32_t k = 0; k < n && retired < budget; ++k) {
        Context &ctx = contexts_[c];
        if (++c == n)
            c = 0;
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

namespace {

/** Null-thread sentinel in serialized context/ROB entries. */
constexpr std::uint32_t kNoThread = 0xffffffffu;

void
saveMicroOp(ckpt::Writer &w, const MicroOp &op)
{
    w.u8(static_cast<std::uint8_t>(op.cls));
    w.boolean(op.mispredict);
    w.boolean(op.fetchLineCross);
    w.u8(op.depDist);
    w.u64(op.addr);
    w.u64(op.fetchAddr);
}

void
loadMicroOp(ckpt::Reader &r, MicroOp &op)
{
    const std::uint8_t cls = r.u8();
    if (cls >= kNumOpClasses)
        throw ckpt::CorruptSnapshot("ckpt: bad op class");
    op.cls = static_cast<OpClass>(cls);
    op.mispredict = r.boolean();
    op.fetchLineCross = r.boolean();
    op.depDist = r.u8();
    op.addr = r.u64();
    op.fetchAddr = r.u64();
}

} // namespace

void
Core::saveState(
    ckpt::Writer &w,
    const std::function<std::uint32_t(const ThreadSource *)> &thread_index)
    const
{
    w.u64(globalNow_);
    w.u64(coreNow_);
    w.f64(clockAccum_);
    w.u32(fetchRotor_);
    w.u32(retireRotor_);
    ckpt::saveCounters(w, stats_);
    for (int c = 0; c < kNumOpClasses; ++c)
        w.u64(stats_.dispatched[c]);
    hierarchy_.saveState(w);
    w.u32(static_cast<std::uint32_t>(contexts_.size()));
    for (const Context &ctx : contexts_) {
        w.u32(ctx.thread ? thread_index(ctx.thread) : kNoThread);
        saveMicroOp(w, ctx.staged);
        w.boolean(ctx.hasStaged);
        w.boolean(ctx.stagedFetchDone);
        w.u64(ctx.frontStallUntil);
        w.u64(ctx.stallUntil);
        for (const Cycle c : ctx.depCompletion)
            w.u64(c);
        w.u64(ctx.opIndex);
        // The ROB ring is serialized head-first; the restored ring starts
        // at index 0, which preserves the FIFO order — the only thing
        // retirement depends on.
        w.u32(static_cast<std::uint32_t>(ctx.rob.size()));
        w.u32(ctx.robCount);
        for (std::uint32_t k = 0; k < ctx.robCount; ++k) {
            const InFlightOp &op =
                ctx.rob[(ctx.robHead + k) % ctx.rob.size()];
            w.u64(op.completion);
            w.u32(op.thread ? thread_index(op.thread) : kNoThread);
        }
    }
    saveDerived(w);
}

void
Core::loadState(
    ckpt::Reader &r,
    const std::function<ThreadSource *(std::uint32_t)> &thread_at)
{
    globalNow_ = r.u64();
    coreNow_ = r.u64();
    clockAccum_ = r.f64();
    fetchRotor_ = r.u32();
    retireRotor_ = r.u32();
    ckpt::loadCounters(r, stats_);
    for (int c = 0; c < kNumOpClasses; ++c)
        stats_.dispatched[c] = r.u64();
    hierarchy_.loadState(r);
    r.count(contexts_.size(), "SMT contexts");
    for (Context &ctx : contexts_) {
        const std::uint32_t tidx = r.u32();
        ctx.thread = tidx == kNoThread ? nullptr : thread_at(tidx);
        loadMicroOp(r, ctx.staged);
        ctx.hasStaged = r.boolean();
        ctx.stagedFetchDone = r.boolean();
        ctx.frontStallUntil = r.u64();
        ctx.stallUntil = r.u64();
        for (Cycle &c : ctx.depCompletion)
            c = r.u64();
        ctx.opIndex = r.u64();
        r.count(ctx.rob.size(), "ROB capacity");
        const std::uint32_t rob_count = r.u32();
        if (rob_count > ctx.rob.size())
            throw ckpt::CorruptSnapshot("ckpt: ROB overflow");
        ctx.robHead = 0;
        ctx.robCount = rob_count;
        for (std::uint32_t k = 0; k < rob_count; ++k) {
            InFlightOp &op = ctx.rob[k];
            op.completion = r.u64();
            const std::uint32_t oidx = r.u32();
            op.thread = oidx == kNoThread ? nullptr : thread_at(oidx);
        }
    }
    countActiveContexts();
    loadDerived(r);
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
