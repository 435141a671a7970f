#include "chip_sim.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/env.h"
#include "common/log.h"

namespace smtflex {

double
SimResult::aggregateIpc() const
{
    double sum = 0.0;
    for (const auto &t : threads)
        sum += t.ipc();
    return sum;
}

ChipSim::ChipSim(const ChipConfig &config)
    : config_(config), shared_(config),
      activeHistogram_(config.totalContexts() + 8)
{
    config_.validate();
    cores_.reserve(config_.numCores());
    for (std::uint32_t i = 0; i < config_.numCores(); ++i) {
        cores_.push_back(makeCore(config_.cores[i], i,
                                  config_.contextsOf(i), &shared_,
                                  config_.chipFreqGHz));
    }
    poweredCycles_.assign(config_.numCores(), 0);
    wake_.assign(config_.numCores(), 0);
    sleepStart_.assign(config_.numCores(), 0);
    awakeMask_.assign((config_.numCores() + 63) / 64, 0);
    for (std::uint32_t i = 0; i < config_.numCores(); ++i)
        awakeMask_[i / 64] |= std::uint64_t{1} << (i % 64);
    fastForward_ = !envFlag("SMTFLEX_NO_FASTFWD", false);
}

void
ChipSim::attach(std::uint32_t core, std::uint32_t slot, ThreadSource *t)
{
    if (core < wake_.size())
        flushCore(core); // settle deferred sleep before mutating the core
    cores_.at(core)->attachThread(slot, t);
    ++attachedThreads_;
}

ThreadSource *
ChipSim::detach(std::uint32_t core, std::uint32_t slot)
{
    if (core < wake_.size())
        flushCore(core);
    ThreadSource *old = cores_.at(core)->detachThread(slot);
    if (old)
        --attachedThreads_;
    return old;
}

void
ChipSim::tick()
{
    ++now_;
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        Core &core = *cores_[i];
        const bool powered = core.activeContexts() > 0;
        poweredCycles_[i] += powered;
        if (powered || !core.quiescent())
            core.tick(now_);
    }
    activeHistogram_.add(attachedThreads_, 1.0);
}

void
ChipSim::flushCore(std::uint32_t i)
{
    if (wake_[i] == 0)
        return;
    // Parked dormant cores would not have ticked in the strict loop
    // either: nothing to replay.
    if (wake_[i] != kCycleNever) {
        // The core slept through (sleepStart_, min(now_, wake_ - 1)];
        // those cycles are provably inert, so bulk-replay their
        // accounting exactly (cycle counts, rotors, stall counters,
        // powered cycles).
        const Cycle upto = std::min(now_, wake_[i] - 1);
        if (upto > sleepStart_[i]) {
            const Cycle count = upto - sleepStart_[i];
            Core &core = *cores_[i];
            if (core.activeContexts() > 0)
                poweredCycles_[i] += count;
            core.skipTicks(count);
            ffCycles_ += count;
        }
    }
    wake_[i] = 0;
    awakeMask_[i / 64] |= std::uint64_t{1} << (i % 64);
}

void
ChipSim::wakeAllCores()
{
    for (std::uint32_t i = 0; i < wake_.size(); ++i)
        flushCore(i);
}

void
ChipSim::stepCores()
{
    ++now_;
    // Wake the sleepers whose next strict tick arrived.
    while (!wakeHeap_.empty() && wakeHeap_.top().first <= now_) {
        const auto [w, i] = wakeHeap_.top();
        wakeHeap_.pop();
        if (wake_[i] == w)
            flushCore(i);
    }
    // Tick the awake cores, in index order (same-cycle memory accesses
    // must hit the shared system in the strict loop's order).
    for (std::size_t word = 0; word < awakeMask_.size(); ++word) {
        std::uint64_t bits = awakeMask_[word];
        while (bits != 0) {
            const std::uint32_t i = static_cast<std::uint32_t>(
                word * 64 + std::countr_zero(bits));
            bits &= bits - 1;
            Core &core = *cores_[i];
            const bool powered = core.activeContexts() > 0;
            poweredCycles_[i] += powered;
            if (!powered && core.quiescent()) {
                // Dormant: the strict loop skips it every cycle; park it
                // until an attach flushes it back awake.
                wake_[i] = kCycleNever;
                awakeMask_[word] &= ~(std::uint64_t{1} << (i % 64));
                continue;
            }
            core.tick(now_);
            const Cycle event = core.nextEventCycle(now_);
            if (event > now_ + 1) {
                // A powered core with no event at all (its threads are out
                // of work) is not parked: strict ticking keeps counting
                // its cycles, so it sleeps until a flush replays them.
                const Cycle wake =
                    powered ? std::min(event, kCycleNever - 1) : event;
                wake_[i] = wake;
                sleepStart_[i] = now_;
                wakeHeap_.push({wake, i});
                awakeMask_[word] &= ~(std::uint64_t{1} << (i % 64));
            }
        }
    }
    activeHistogram_.add(attachedThreads_, 1.0);
}

void
ChipSim::jumpIdleSpan(Cycle bound)
{
    // Jump only when every core is asleep or parked.
    for (const std::uint64_t word : awakeMask_)
        if (word != 0)
            return; // some core is awake: it could act next cycle
    Cycle min_wake = kCycleNever;
    while (!wakeHeap_.empty()) {
        const auto [w, i] = wakeHeap_.top();
        if (wake_[i] != w) {
            wakeHeap_.pop(); // stale: the core was flushed externally
            continue;
        }
        min_wake = w;
        break;
    }
    const Cycle target = min_wake == kCycleNever
        ? bound
        : std::min(bound, min_wake - 1);
    if (target > now_) {
        // Nothing can happen until the earliest wake (sleeping cores'
        // accounting is deferred, parked cores would not have ticked
        // anyway). Integral double sums are exact, so the bulk histogram
        // add is bit-identical to per-cycle unit adds.
        activeHistogram_.add(attachedThreads_,
                             static_cast<double>(target - now_));
        now_ = target;
    }
}

void
ChipSim::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        step();
        jumpIdleSpan(end);
    }
    wakeAllCores();
}

void
ChipSim::warmAllCaches(const std::vector<WarmSpec> &specs)
{
    // Each thread's resident lines (coldest/largest regions first, hottest
    // last — forEachResidentLine's order), and every cache's install
    // count: the LLC takes every line, a core's L2 its threads' lines and
    // its L1I/L1D their code/data lines.
    struct Thread
    {
        std::vector<ResidentRun> runs;
        std::uint64_t lines = 0;
        /** Backward cursor: the next line is line k - 1 of runs[run]
         * (k == 0 steps back to the previous run). */
        std::size_t run = 0;
        std::uint64_t k = 0;
    };
    std::vector<Thread> threads(specs.size());
    std::vector<std::uint64_t> code_lines(cores_.size(), 0);
    std::vector<std::uint64_t> data_lines(cores_.size(), 0);
    std::uint64_t llc_lines = 0;
    std::size_t chunks = 0;
    constexpr std::size_t kChunkLines = 128;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Thread &t = threads[i];
        t.runs = TraceGenerator::residentRuns(
            *specs[i].profile, specs[i].space, config_.llc.sizeBytes);
        for (const ResidentRun &run : t.runs) {
            (run.isCode ? code_lines : data_lines).at(specs[i].core) +=
                run.count;
            t.lines += run.count;
        }
        t.run = t.runs.size();
        llc_lines += t.lines;
        chunks = std::max<std::size_t>(
            chunks, (t.lines + kChunkLines - 1) / kChunkLines);
    }

    // The install order interleaves the threads chunk by chunk (chunk 0
    // of every thread, then chunk 1, ...), so that LLC capacity pressure
    // evicts every thread's coldest lines evenly. The cold fills take each
    // cache's share of it newest-first, so walk it backwards. They fail
    // loudly unless every cache of the chip is still untouched.
    SetAssocCache::ColdFill llc = shared_.llcColdFill(llc_lines);
    std::vector<PrivateHierarchy::ColdFill> fills;
    fills.reserve(cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c)
        fills.emplace_back(cores_[c]->hierarchy(), code_lines[c],
                           data_lines[c]);
    for (std::size_t chunk = chunks; chunk-- > 0;) {
        for (std::size_t i = specs.size(); i-- > 0;) {
            Thread &t = threads[i];
            const std::uint64_t begin = chunk * kChunkLines;
            if (begin >= t.lines)
                continue;
            PrivateHierarchy::ColdFill &fill = fills[specs[i].core];
            for (std::uint64_t n = std::min<std::uint64_t>(
                     kChunkLines, t.lines - begin);
                 n > 0; --n) {
                while (t.k == 0)
                    t.k = t.runs[--t.run].count;
                const ResidentRun &run = t.runs[t.run];
                const Addr addr = run.at(--t.k);
                fill.prepend(addr, run.isCode);
                llc.prepend(addr);
            }
        }
    }
}

void
ChipSim::validatePlacement(const Placement &placement,
                           std::size_t num_threads) const
{
    if (placement.entries.size() != num_threads)
        fatal("ChipSim: placement covers ", placement.entries.size(),
              " threads, workload has ", num_threads);
    for (const auto &entry : placement.entries) {
        if (entry.core >= cores_.size())
            fatal("ChipSim: placement names bad core ", entry.core);
        if (entry.slot >= cores_[entry.core]->numContexts())
            fatal("ChipSim: placement names bad slot ", entry.slot,
                  " on core ", entry.core);
    }
}

SimResult
ChipSim::runMultiProgram(const std::vector<ThreadSpec> &specs,
                         const Placement &placement, std::uint64_t seed,
                         const RunLimits &limits)
{
    if (specs.empty())
        fatal("ChipSim: empty workload");
    if (limits.maxCycles == 0)
        fatal("ChipSim: RunLimits.maxCycles must be > 0");
    if (limits.quantum == 0)
        fatal("ChipSim: RunLimits.quantum must be > 0");
    validatePlacement(placement, specs.size());

    // Materialise the threads.
    std::vector<std::unique_ptr<SimThread>> threads;
    threads.reserve(specs.size());
    for (std::uint32_t i = 0; i < specs.size(); ++i) {
        if (!specs[i].profile || specs[i].budget == 0)
            fatal("ChipSim: bad thread spec ", i);
        threads.push_back(std::make_unique<SimThread>(
            *specs[i].profile, seed, i, specs[i].budget,
            /*restart=*/true, specs[i].warmup));
    }

    // Group threads by context slot; oversubscribed slots time-share.
    // Shares keep first-appearance order (it fixes the attach order); the
    // map only replaces the former linear rescan per thread.
    struct SlotShare
    {
        std::uint32_t core, slot;
        std::vector<std::uint32_t> threads; // thread ids sharing this slot
        std::uint32_t resident = 0;         // index into threads
    };
    std::vector<SlotShare> shares;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> slot_index;
    for (std::uint32_t i = 0; i < specs.size(); ++i) {
        const auto &entry = placement.entries[i];
        const auto [it, inserted] = slot_index.try_emplace(
            {entry.core, entry.slot}, shares.size());
        if (inserted) {
            shares.push_back({entry.core, entry.slot, {i}, 0});
        } else {
            shares[it->second].threads.push_back(i);
        }
    }

    bool time_sharing = false;
    for (const auto &share : shares)
        time_sharing |= share.threads.size() > 1;

    for (const auto &share : shares)
        attach(share.core, share.slot, threads[share.threads[0]].get());

    // Functional warmup: every thread's resident working set is installed
    // on its core and in the LLC before timing starts.
    std::vector<WarmSpec> warm;
    warm.reserve(specs.size());
    for (std::uint32_t i = 0; i < specs.size(); ++i) {
        warm.push_back({specs[i].profile, AddressSpace::forThread(i),
                        placement.entries[i].core});
    }
    warmAllCaches(warm);

    // Main loop: run until every thread finished its budget once.
    //
    // Completion detection is O(1): every thread bumps `finished_eager`
    // at the exact retire that completes its budget, and the loop samples
    // that counter at the cadence the former per-cycle thread scan used
    // (every cycle without time sharing, every 256 cycles with), so exit
    // cycles — and with them all results — are unchanged.
    std::uint32_t finished_eager = 0;
    for (auto &thread : threads)
        thread->notifyFinishTo(&finished_eager);
    std::uint32_t finished = 0;

    // Thread rotations fall on the first multiple of the quantum after
    // now_, and every quantum from there.
    Cycle next_rotation = time_sharing
        ? (now_ / limits.quantum + 1) * limits.quantum
        : kCycleNever;
    while (finished < threads.size() && now_ < limits.maxCycles) {
        step();
        // When every core sleeps, jump straight to the earliest wake, but
        // never past a cycle the strict loop acts at: thread rotations
        // and — while a finish is not yet observed — the completion
        // sample (this very cycle without time sharing), so the loop
        // exits at exactly the strict run's cycle. No retire can happen
        // inside a sleep span, so the completion counter cannot advance
        // across a jump.
        Cycle bound = std::min(limits.maxCycles, next_rotation);
        if (finished_eager != finished)
            bound = std::min(bound,
                             time_sharing ? (now_ + 255) / 256 * 256 : now_);
        jumpIdleSpan(bound);

        if (now_ == next_rotation) {
            for (auto &share : shares) {
                if (share.threads.size() < 2)
                    continue;
                detach(share.core, share.slot);
                share.resident = (share.resident + 1) %
                    static_cast<std::uint32_t>(share.threads.size());
                attach(share.core, share.slot,
                       threads[share.threads[share.resident]].get());
            }
            next_rotation += limits.quantum;
        }
        if (!time_sharing || now_ % 256 == 0)
            finished = finished_eager;
    }
    wakeAllCores();
    hitCycleLimit_ = now_ >= limits.maxCycles;
    if (hitCycleLimit_)
        warn("ChipSim ", config_.name, ": hit cycle limit at ", now_);

    SimResult result = collectResult();
    result.threads.clear();
    for (const auto &thread : threads) {
        ThreadResult tr;
        tr.benchmark = thread->benchmark();
        tr.budget = thread->budget();
        tr.finished = thread->finished();
        tr.startCycle = thread->startCycle();
        tr.finishCycle = thread->finishCycle();
        result.threads.push_back(std::move(tr));
    }
    return result;
}

SimResult
ChipSim::collectResult() const
{
    SimResult result;
    result.configName = config_.name;
    result.cycles = now_;
    result.chipFreqGHz = config_.chipFreqGHz;
    result.hitCycleLimit = hitCycleLimit_;
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const Core &core = *cores_[i];
        CoreResult cr;
        cr.params = core.params();
        cr.stats = core.stats();
        cr.l1i = core.hierarchy().l1i().stats();
        cr.l1d = core.hierarchy().l1d().stats();
        cr.l2 = core.hierarchy().l2().stats();
        cr.poweredCycles = poweredCycles_[i];
        result.cores.push_back(std::move(cr));
    }
    result.llc = shared_.llc().stats();
    result.dram = shared_.dram().stats();
    result.xbar = shared_.crossbar().stats();
    result.activeThreadFractions.resize(activeHistogram_.numBuckets());
    for (std::size_t k = 0; k < activeHistogram_.numBuckets(); ++k)
        result.activeThreadFractions[k] = activeHistogram_.fraction(k);
    return result;
}

telemetry::Snapshot
resultMetrics(const SimResult &result)
{
    telemetry::MetricRegistry reg;
    reg.info("chip.config", [&result] { return result.configName; });
    reg.counter("chip.cycles", &result.cycles);
    reg.gaugeReal("chip.freq_ghz", [&result] { return result.chipFreqGHz; });
    reg.gaugeBool("chip.hit_cycle_limit",
                  [&result] { return result.hitCycleLimit; });
    telemetry::attachHistogram(
        reg, "chip.active_threads", result.activeThreadFractions.size(),
        [&result](std::size_t k) { return result.activeThreadFractions[k]; });
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
        const std::string prefix = "core." + std::to_string(i);
        const CoreResult &cr = result.cores[i];
        telemetry::attachCounters(reg, prefix, cr.stats);
        for (int c = 0; c < kNumOpClasses; ++c) {
            reg.counter(prefix + ".dispatch." +
                            opClassMetricName(static_cast<OpClass>(c)),
                        &cr.stats.dispatched[c]);
        }
        telemetry::attachCounters(reg, prefix + ".l1i", cr.l1i);
        telemetry::attachCounters(reg, prefix + ".l1d", cr.l1d);
        telemetry::attachCounters(reg, prefix + ".l2", cr.l2);
        reg.counter(prefix + ".powered_cycles", &cr.poweredCycles);
    }
    telemetry::attachCounters(reg, "llc", result.llc);
    telemetry::attachCounters(reg, "dram", result.dram);
    telemetry::attachCounters(reg, "xbar", result.xbar);
    return reg.snapshot();
}

} // namespace smtflex
