#include "parsec_runner.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "sched/scheduler.h"

namespace smtflex {

namespace {

/** Shared data segment base common to all threads of the application. */
constexpr Addr kSharedBase = Addr{1} << 35;

AddressSpace
spaceFor(const ParsecProfile &app, std::uint32_t tid)
{
    AddressSpace space = AddressSpace::forThread(tid);
    space.sharedBase = kSharedBase;
    space.sharedProb = app.sharedFraction;
    return space;
}

/** Nominal size of one modelled critical section, instructions. */
constexpr InstrCount kCriticalInstr = 300;

} // namespace

ParsecThread::ParsecThread(const ParsecProfile &app, std::uint32_t tid,
                           std::uint64_t seed)
    : workerGen_(app.kernel, seed, tid, spaceFor(app, tid)),
      serialGen_(app.serialKernel, seed, 1000 + tid, spaceFor(app, tid))
{
}

MicroOp
ParsecThread::nextOp()
{
    ++generated_;
    return useSerial_ ? serialGen_.next() : workerGen_.next();
}

bool
ParsecThread::hasWork()
{
    return runnable_ && generated_ < target_;
}

void
ParsecThread::onRetire(Cycle now)
{
    (void)now;
    ++retired_;
    ++totalRetired_;
}

void
ParsecThread::onStagedOpDropped()
{
    // The op was generated but never executed (context switch); it will be
    // regenerated, so it must not count against the segment target.
    if (generated_ > retired_)
        --generated_;
}

void
ParsecThread::startSegment(InstrCount instr, bool serial_kernel)
{
    target_ = instr;
    generated_ = 0;
    retired_ = 0;
    useSerial_ = serial_kernel;
    runnable_ = true;
}

ParsecRunner::ParsecRunner(const ChipConfig &config, const ParsecProfile &app,
                           std::uint32_t num_threads, std::uint64_t seed,
                           bool throttle_critical)
    : config_(config), app_(&app), numThreads_(num_threads), seed_(seed),
      throttleCritical_(throttle_critical),
      rng_(seed, 0xbabb1e), roiHistogram_(config.totalContexts() + 8)
{
    app.validate();
    if (num_threads == 0)
        fatal("ParsecRunner: zero threads");
    const auto order = slotFillOrder(config_);
    if (num_threads > order.size())
        fatal("ParsecRunner: ", num_threads, " threads exceed ",
              order.size(), " hardware contexts of ", config_.name);
    pinning_.assign(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(num_threads));

    chip_ = std::make_unique<ChipSim>(config_);
    for (std::uint32_t t = 0; t < num_threads; ++t)
        threads_.push_back(std::make_unique<ParsecThread>(app, t, seed));
    state_.assign(num_threads, ThreadState::kIdle);
    attached_.assign(num_threads, false);
    throttled_.assign(num_threads, false);
    plan_.resize(num_threads);
}

void
ParsecRunner::attachThread(std::uint32_t tid)
{
    if (attached_[tid])
        return;
    chip_->attach(pinning_[tid].core, pinning_[tid].slot,
                  threads_[tid].get());
    attached_[tid] = true;
}

void
ParsecRunner::detachThread(std::uint32_t tid)
{
    if (!attached_[tid])
        return;
    chip_->detach(pinning_[tid].core, pinning_[tid].slot);
    attached_[tid] = false;
}

void
ParsecRunner::startPhase(std::uint32_t phase)
{
    currentPhase_ = phase;
    barrierArrived_ = 0;

    // Work division: the phase's work is split across at most
    // maxParallelism workers; extra threads get nothing and go straight to
    // the barrier.
    const std::uint32_t workers =
        std::min(numThreads_, app_->maxParallelism);
    const double phase_work = static_cast<double>(app_->roiInstr) /
        static_cast<double>(app_->numPhases);
    const double base = phase_work / static_cast<double>(workers);

    for (std::uint32_t t = 0; t < numThreads_; ++t) {
        plan_[t].clear();
        if (t >= workers)
            continue;
        double chunk = base;
        if (app_->imbalanceCv > 0.0)
            chunk = rng_.nextLognormal(base, app_->imbalanceCv);
        const auto chunk_instr = static_cast<InstrCount>(
            std::max<long long>(1, std::llround(chunk)));

        // Interleave critical sections of ~kCriticalInstr instructions.
        InstrCount n_crit = 0;
        if (app_->criticalFraction > 0.0) {
            n_crit = static_cast<InstrCount>(std::llround(
                static_cast<double>(chunk_instr) * app_->criticalFraction /
                static_cast<double>(kCriticalInstr)));
        }
        if (n_crit == 0) {
            plan_[t].push_back({chunk_instr, false});
        } else {
            const InstrCount crit_total =
                std::min(chunk_instr, n_crit * kCriticalInstr);
            const InstrCount normal_total = chunk_instr - crit_total;
            const InstrCount normal_piece = normal_total / (n_crit + 1);
            InstrCount normal_left = normal_total;
            for (InstrCount c = 0; c < n_crit; ++c) {
                if (normal_piece > 0) {
                    plan_[t].push_back({normal_piece, false});
                    normal_left -= normal_piece;
                }
                plan_[t].push_back({kCriticalInstr, true});
            }
            if (normal_left > 0)
                plan_[t].push_back({normal_left, false});
        }
    }

    // Launch: threads with work start running; others arrive at the
    // barrier immediately.
    for (std::uint32_t t = 0; t < numThreads_; ++t) {
        if (plan_[t].empty()) {
            state_[t] = ThreadState::kAtBarrier;
            ++barrierArrived_;
        } else {
            state_[t] = ThreadState::kRunning;
            beginNextSegment(t);
        }
    }
    // Degenerate case: nobody had work.
    if (barrierArrived_ == numThreads_)
        onBarrierComplete();
}

void
ParsecRunner::beginNextSegment(std::uint32_t tid)
{
    const Segment seg = plan_[tid].front();
    if (seg.critical) {
        if (lockHeld_) {
            state_[tid] = ThreadState::kWantLock;
            threads_[tid]->setRunnable(false);
            detachThread(tid); // yield while waiting for the lock
            lockQueue_.push_back(tid);
            return;
        }
        lockHeld_ = true;
        state_[tid] = ThreadState::kInCritical;
        attachThread(tid);
        threads_[tid]->startSegment(seg.instr, /*serial_kernel=*/false);
        throttleCoRunners(tid);
        return;
    }
    state_[tid] = ThreadState::kRunning;
    attachThread(tid);
    threads_[tid]->startSegment(seg.instr, /*serial_kernel=*/false);
}

void
ParsecRunner::throttleCoRunners(std::uint32_t holder)
{
    if (!throttleCritical_)
        return;
    for (std::uint32_t t = 0; t < numThreads_; ++t) {
        if (t == holder || !attached_[t] || throttled_[t])
            continue;
        if (pinning_[t].core != pinning_[holder].core)
            continue;
        if (state_[t] != ThreadState::kRunning)
            continue;
        // Pause: the co-runner keeps its (partial) segment progress; the
        // staged-op loss at detach is the context-switch cost.
        threads_[t]->setRunnable(false);
        detachThread(t);
        throttled_[t] = true;
    }
}

void
ParsecRunner::unthrottleCoRunners(std::uint32_t holder)
{
    if (!throttleCritical_)
        return;
    for (std::uint32_t t = 0; t < numThreads_; ++t) {
        if (!throttled_[t] || pinning_[t].core != pinning_[holder].core)
            continue;
        throttled_[t] = false;
        threads_[t]->setRunnable(true);
        attachThread(t);
    }
}

void
ParsecRunner::grantLockToNextWaiter()
{
    if (lockQueue_.empty())
        return;
    const std::uint32_t tid = lockQueue_.front();
    lockQueue_.pop_front();
    lockHeld_ = true;
    state_[tid] = ThreadState::kInCritical;
    attachThread(tid);
    threads_[tid]->startSegment(plan_[tid].front().instr,
                                /*serial_kernel=*/false);
    throttleCoRunners(tid);
}

void
ParsecRunner::handleSegmentDone(std::uint32_t tid)
{
    switch (appState_) {
      case AppState::kInit:
        // Master finished initialisation: enter the ROI.
        roiStart_ = chip_->now();
        appState_ = AppState::kRoi;
        detachThread(tid);
        state_[tid] = ThreadState::kIdle;
        startPhase(0);
        return;

      case AppState::kInterPhaseSerial:
        // Master finished the serial bridge; next parallel phase.
        detachThread(tid);
        state_[tid] = ThreadState::kIdle;
        appState_ = AppState::kRoi;
        startPhase(currentPhase_ + 1);
        return;

      case AppState::kFinal:
        detachThread(tid);
        state_[tid] = ThreadState::kDone;
        appState_ = AppState::kDone;
        return;

      case AppState::kRoi:
        break;
      case AppState::kDone:
        return;
    }

    // ROI: a worker finished a segment.
    if (state_[tid] == ThreadState::kInCritical) {
        lockHeld_ = false;
        unthrottleCoRunners(tid);
        grantLockToNextWaiter();
    }
    plan_[tid].pop_front();

    if (!plan_[tid].empty()) {
        beginNextSegment(tid);
        return;
    }

    // Phase work exhausted: arrive at the barrier (yield).
    threads_[tid]->setRunnable(false);
    detachThread(tid);
    state_[tid] = ThreadState::kAtBarrier;
    ++barrierArrived_;
    if (barrierArrived_ == numThreads_)
        onBarrierComplete();
}

void
ParsecRunner::onBarrierComplete()
{
    const bool last_phase = currentPhase_ + 1 >= app_->numPhases;
    if (last_phase) {
        // ROI ends at the final barrier.
        roiEnd_ = chip_->now();
        appState_ = AppState::kFinal;
        for (std::uint32_t t = 1; t < numThreads_; ++t)
            state_[t] = ThreadState::kDone;
        if (app_->seqFinalInstr > 0) {
            state_[0] = ThreadState::kRunning;
            attachThread(0);
            threads_[0]->startSegment(app_->seqFinalInstr, true);
        } else {
            state_[0] = ThreadState::kDone;
            appState_ = AppState::kDone;
        }
        return;
    }

    if (app_->serialPerPhase > 0) {
        // Master bridges the phases sequentially while workers wait.
        appState_ = AppState::kInterPhaseSerial;
        state_[0] = ThreadState::kRunning;
        attachThread(0);
        threads_[0]->startSegment(app_->serialPerPhase, true);
        return;
    }
    startPhase(currentPhase_ + 1);
}

ParsecRunResult
ParsecRunner::run(Cycle max_cycles)
{
    // Functional cache warmup of each worker's resident working set on its
    // pinned core (the sequential init phase handles the rest).
    std::vector<ChipSim::WarmSpec> warm;
    for (std::uint32_t t = 0; t < numThreads_; ++t)
        warm.push_back({&app_->kernel, spaceFor(*app_, t),
                        pinning_[t].core});
    chip_->warmAllCaches(warm);

    // Sequential initialisation on the big core (slot 0 of the fill order).
    appState_ = AppState::kInit;
    state_[0] = ThreadState::kRunning;
    attachThread(0);
    threads_[0]->startSegment(std::max<InstrCount>(app_->seqInitInstr, 1),
                              true);

    // The run loop of ChipSim::run(): idle cores sleep and, when all do,
    // time jumps to the earliest wake. Threads change state only at the
    // poll after a step — no op retires inside a jumped span — so every
    // skipped cycle would have polled nothing and counts towards the ROI
    // histogram with the state the last poll left.
    const auto in_roi = [this] {
        return appState_ == AppState::kRoi ||
            appState_ == AppState::kInterPhaseSerial;
    };
    while (appState_ != AppState::kDone && chip_->now() < max_cycles) {
        chip_->step();
        if (in_roi())
            roiHistogram_.add(chip_->attachedThreads(), 1.0);
        // Poll for completed segments (cheap: two integer compares each).
        bool changed = false;
        for (std::uint32_t t = 0; t < numThreads_; ++t) {
            if (attached_[t] &&
                (state_[t] == ThreadState::kRunning ||
                 state_[t] == ThreadState::kInCritical ||
                 appState_ == AppState::kInit ||
                 appState_ == AppState::kInterPhaseSerial ||
                 appState_ == AppState::kFinal) &&
                threads_[t]->segmentDone()) {
                handleSegmentDone(t);
                changed = true;
            }
        }
        if (changed) {
            // A still-attached thread may have been given a new segment
            // without an attach, so its core may be asleep with no event.
            // No jump either: the run may just have ended (only a poll
            // ends it), and the strict loop stops at this very cycle.
            chip_->wakeAllCores();
            continue;
        }
        const Cycle before = chip_->now();
        chip_->jumpIdleSpan(max_cycles);
        if (in_roi() && chip_->now() != before) {
            roiHistogram_.add(chip_->attachedThreads(),
                              static_cast<double>(chip_->now() - before));
        }
    }
    chip_->wakeAllCores();

    ParsecRunResult result;
    result.completed = appState_ == AppState::kDone;
    if (!result.completed)
        warn("ParsecRunner ", app_->name, " on ", config_.name,
             ": hit cycle limit");
    result.sim = chip_->collectResult();
    result.fastForwardedCycles = chip_->fastForwardedCycles();
    result.roiStartCycle = roiStart_;
    result.roiEndCycle = roiEnd_;
    result.totalCycles = chip_->now();
    result.roiActiveThreadFractions.resize(roiHistogram_.numBuckets());
    for (std::size_t k = 0; k < roiHistogram_.numBuckets(); ++k)
        result.roiActiveThreadFractions[k] = roiHistogram_.fraction(k);
    return result;
}

} // namespace smtflex
