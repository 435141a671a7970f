#include "chip_sim.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <utility>

#include "ckpt/store.h"
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
    registerChipMetrics();
}

void
ChipSim::registerChipMetrics()
{
    // Everything the registry views lives in members assigned exactly once
    // above (cores_ holds stable unique_ptrs; poweredCycles_ never
    // reallocates), so the pointers stay valid for the chip's lifetime.
    registry_.info("chip.config", [this] { return config_.name; });
    registry_.counter("chip.cycles", &now_);
    registry_.gaugeReal("chip.freq_ghz",
                        [this] { return config_.chipFreqGHz; });
    registry_.gaugeBool("chip.hit_cycle_limit",
                        [this] { return hitCycleLimit_; });
    telemetry::attachHistogram(
        registry_, "chip.active_threads", activeHistogram_.numBuckets(),
        [this](std::size_t k) { return activeHistogram_.fraction(k); });
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const std::string prefix = "core." + std::to_string(i);
        cores_[i]->registerMetrics(registry_, prefix);
        registry_.counter(prefix + ".powered_cycles", &poweredCycles_[i]);
    }
    shared_.registerMetrics(registry_);
}

void
ChipSim::enableSampling(Cycle interval, std::size_t max_points)
{
    if (interval == 0)
        fatal("ChipSim: sampling interval must be > 0");
    samplingInterval_ = interval;
    samplingMaxPoints_ = max_points;
    nextSample_ = now_ + interval;
    lastSampleCycle_ = now_;
    std::uint64_t retired = 0;
    for (const auto &core : cores_)
        retired += core->stats().retired;
    lastSampleRetired_ = retired;
    ipcSeries_ = &registry_.series("chip.ipc", max_points);
    activeSeries_ = &registry_.series("chip.active_threads", max_points);
}

void
ChipSim::maybeSample()
{
    // Retired counts are strict even while cores sleep: retirement only
    // happens inside tick(), so a sleeping (provably inert) core's counter
    // is already exact — no wake needed to read it.
    std::uint64_t retired = 0;
    for (const auto &core : cores_)
        retired += core->stats().retired;
    const Cycle elapsed = now_ - lastSampleCycle_;
    const double ipc = elapsed
        ? static_cast<double>(retired - lastSampleRetired_) /
            static_cast<double>(elapsed)
        : 0.0;
    ipcSeries_->append(now_, ipc);
    activeSeries_->append(now_, static_cast<double>(attachedThreads_));
    lastSampleCycle_ = now_;
    lastSampleRetired_ = retired;
    nextSample_ = now_ + samplingInterval_;
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
    if (samplingInterval_ != 0 && now_ >= nextSample_)
        maybeSample();
}

Cycle
ChipSim::nextEventCycle()
{
    Cycle event = kCycleNever;
    for (const auto &core : cores_) {
        // Mirror tick()'s ticking condition: unpowered quiescent cores do
        // not advance, so they contribute no events (attach only happens
        // at strictly simulated cycles).
        if (core->activeContexts() == 0 && core->quiescent())
            continue;
        event = std::min(event, core->nextEventCycle(now_));
        if (event <= now_ + 1)
            return now_ + 1; // some core may act next cycle: no skip
    }
    return event;
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
            ++ffSpans_;
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
                wake_[i] = event;
                sleepStart_[i] = now_;
                wakeHeap_.push({event, i});
                awakeMask_[word] &= ~(std::uint64_t{1} << (i % 64));
            }
        }
    }
    activeHistogram_.add(attachedThreads_, 1.0);
    if (samplingInterval_ != 0 && now_ >= nextSample_)
        maybeSample();
}

void
ChipSim::jumpIdleSpan(Cycle bound)
{
    // A sample must be taken at exactly its boundary cycle, so a jump may
    // not pass one. (Landing on the boundary is fine: no core was awake,
    // so the sampled counters cannot differ from the strict loop's.)
    if (samplingInterval_ != 0)
        bound = std::min(bound, nextSample_);
    // Jump only when every core is asleep or parked — checked against
    // the *current* state, after any rotation/attach woke cores.
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
        if (samplingInterval_ != 0 && now_ >= nextSample_)
            maybeSample();
    }
}

void
ChipSim::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    if (!fastForward_) {
        while (now_ < end)
            tick();
        return;
    }
    while (now_ < end) {
        stepCores();
        if (now_ < end)
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

void
ChipSim::saveState(ckpt::Writer &w,
                   const std::vector<ThreadSource *> &threads) const
{
    std::map<const ThreadSource *, std::uint32_t> index;
    for (std::uint32_t i = 0; i < threads.size(); ++i)
        index[threads[i]] = i;
    const auto thread_index = [&](const ThreadSource *t) {
        const auto it = index.find(t);
        if (it == index.end())
            fatal("ChipSim::saveState: thread not in the thread table");
        return it->second;
    };

    w.u64(now_);
    w.u32(attachedThreads_);
    w.boolean(hitCycleLimit_);
    w.u64(ffCycles_);
    w.u64(ffSpans_);
    w.u32(static_cast<std::uint32_t>(poweredCycles_.size()));
    for (const Cycle c : poweredCycles_)
        w.u64(c);
    w.u32(static_cast<std::uint32_t>(activeHistogram_.numBuckets()));
    for (const double b : activeHistogram_.rawBuckets())
        w.f64(b);
    w.f64(activeHistogram_.total());
    w.u64(samplingInterval_);
    if (samplingInterval_ != 0) {
        w.u64(nextSample_);
        w.u64(lastSampleCycle_);
        w.u64(lastSampleRetired_);
        for (const telemetry::Series *series : {ipcSeries_, activeSeries_}) {
            const auto points = series->points();
            w.u32(static_cast<std::uint32_t>(points.size()));
            for (const auto &p : points) {
                w.u64(p.x);
                w.f64(p.value);
            }
        }
    }
    shared_.saveState(w);
    for (const auto &core : cores_)
        core->saveState(w, thread_index);
}

void
ChipSim::loadState(ckpt::Reader &r,
                   const std::vector<ThreadSource *> &threads)
{
    const auto thread_at = [&](std::uint32_t idx) -> ThreadSource * {
        if (idx >= threads.size())
            throw ckpt::CorruptSnapshot("ckpt: thread index out of range");
        return threads[idx];
    };

    now_ = r.u64();
    attachedThreads_ = r.u32();
    if (attachedThreads_ > threads.size())
        throw ckpt::CorruptSnapshot("ckpt: attached threads out of range");
    hitCycleLimit_ = r.boolean();
    ffCycles_ = r.u64();
    ffSpans_ = r.u64();
    r.count(poweredCycles_.size(), "powered-cycle counters");
    for (Cycle &c : poweredCycles_)
        c = r.u64();
    const std::uint32_t buckets =
        r.count(activeHistogram_.numBuckets(), "histogram buckets");
    std::vector<double> weights(buckets);
    for (double &b : weights)
        b = r.f64();
    const double total = r.f64();
    activeHistogram_.restore(weights, total);
    if (r.u64() != samplingInterval_)
        throw ckpt::CorruptSnapshot("ckpt: sampling interval mismatch");
    if (samplingInterval_ != 0) {
        nextSample_ = r.u64();
        lastSampleCycle_ = r.u64();
        lastSampleRetired_ = r.u64();
        for (telemetry::Series *series : {ipcSeries_, activeSeries_}) {
            const std::uint32_t n = r.u32();
            series->clear();
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint64_t x = r.u64();
                const double value = r.f64();
                series->append(x, value);
            }
        }
    }
    shared_.loadState(r);
    for (const auto &core : cores_)
        core->loadState(r, thread_at);

    // The snapshot was taken in a strict-equivalent state: every core
    // awake, no deferred accounting. Reset the fast-forward bookkeeping
    // to exactly that.
    std::fill(wake_.begin(), wake_.end(), 0);
    std::fill(sleepStart_.begin(), sleepStart_.end(), 0);
    awakeMask_.assign((cores_.size() + 63) / 64, 0);
    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        awakeMask_[i / 64] |= std::uint64_t{1} << (i % 64);
    wakeHeap_ = {};
}

namespace {

/** Feed every field that shapes simulated behaviour into @p w — the
 * resulting byte stream is hashed into the resume key, so two runs share
 * snapshots only when *all* of it matches. Names alone would not do:
 * identically named configs or profiles with different parameters must
 * never resume each other's state. */
void
hashGeometry(ckpt::Writer &w, const CacheGeometry &g)
{
    w.u64(g.sizeBytes);
    w.u32(g.assoc);
    w.u32(g.lineSize);
}

void
hashCoreParams(ckpt::Writer &w, const CoreParams &p)
{
    w.str(p.name);
    w.u32(static_cast<std::uint32_t>(p.type));
    w.boolean(p.outOfOrder);
    w.u32(p.width);
    w.u32(p.robSize);
    w.u32(p.maxSmtContexts);
    w.u32(static_cast<std::uint32_t>(p.fetchPolicy));
    w.u32(p.intUnits);
    w.u32(p.ldstUnits);
    w.u32(p.mulUnits);
    w.u32(p.fpUnits);
    w.u32(p.latIntAlu);
    w.u32(p.latIntMul);
    w.u32(p.latFp);
    w.u32(p.latBranch);
    w.u32(p.mispredictPenalty);
    hashGeometry(w, p.l1i);
    hashGeometry(w, p.l1d);
    hashGeometry(w, p.l2);
    w.u32(p.latL1);
    w.u32(p.latL2);
    w.u32(p.mshrs);
    w.boolean(p.dataPrefetch);
    w.f64(p.freqGHz);
}

void
hashChipConfig(ckpt::Writer &w, const ChipConfig &c)
{
    w.str(c.name);
    w.u32(c.numCores());
    for (const CoreParams &p : c.cores)
        hashCoreParams(w, p);
    w.boolean(c.smtEnabled);
    hashGeometry(w, c.llc);
    w.u32(c.llcLatency);
    w.u32(c.xbar.hopLatency);
    w.u32(c.xbar.numBanks);
    w.u32(c.xbar.bankOccupancy);
    w.boolean(c.useMesh);
    w.u32(c.mesh.hopLatency);
    w.u32(c.mesh.bankOccupancy);
    w.u32(c.mesh.numBanks);
    w.u32(c.dram.numBanks);
    w.f64(c.dram.accessTimeNs);
    w.f64(c.dram.busBandwidthGBps);
    w.f64(c.dram.clockGHz);
    w.f64(c.chipFreqGHz);
}

void
hashProfile(ckpt::Writer &w, const BenchmarkProfile &p)
{
    w.str(p.name);
    w.f64(p.mix.load);
    w.f64(p.mix.store);
    w.f64(p.mix.intAlu);
    w.f64(p.mix.intMul);
    w.f64(p.mix.fp);
    w.f64(p.mix.branch);
    w.f64(p.meanDepDist);
    w.f64(p.depNoneProb);
    w.f64(p.branchMispredictRate);
    w.f64(p.branchTakenProb);
    w.u64(p.codeFootprint);
    w.f64(p.jumpLocality);
    w.u64(p.hotCodeBytes);
    w.u32(static_cast<std::uint32_t>(p.regions.size()));
    for (const MemRegion &region : p.regions) {
        w.u64(region.bytes);
        w.f64(region.probability);
        w.boolean(region.streaming);
    }
    w.u32(p.accessSkew);
}

/**
 * The resume key of a runMultiProgram() call: everything the simulated
 * state at a pre-finish cycle is a function of. Budget and maxCycles are
 * deliberately *excluded* — until the first thread finishes its budget,
 * the state stream is budget-independent, which is exactly what turns
 * exact-hit caching into prefix reuse (a longer run warm-starts from a
 * shorter run's snapshots). Eligibility against the new budgets/limits
 * is checked per snapshot via its meta header.
 */
std::string
multiProgramCkptKey(const ChipConfig &config,
                    const std::vector<ThreadSpec> &specs,
                    const Placement &placement, std::uint64_t seed,
                    const RunLimits &limits, Cycle sampling_interval,
                    std::size_t sampling_max_points)
{
    ckpt::Writer w;
    hashChipConfig(w, config);
    w.u32(static_cast<std::uint32_t>(specs.size()));
    for (const ThreadSpec &spec : specs) {
        hashProfile(w, *spec.profile);
        w.u64(spec.warmup);
    }
    for (const Placement::Entry &e : placement.entries) {
        w.u32(e.core);
        w.u32(e.slot);
    }
    w.u64(seed);
    w.u64(limits.quantum);
    w.u64(sampling_interval);
    w.u64(sampling_max_points);
    const std::uint64_t hash = ckpt::keyHash64(std::string(
        reinterpret_cast<const char *>(w.bytes().data()), w.size()));

    std::string key = config.name;
    key += ";s" + std::to_string(seed);
    key += ";q" + std::to_string(limits.quantum);
    key += ";t";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i)
            key += "+";
        key += specs[i].profile->name + ":" +
            std::to_string(specs[i].warmup) + "@" +
            std::to_string(placement.entries[i].core) + "." +
            std::to_string(placement.entries[i].slot);
    }
    key += ";h" + std::to_string(hash);
    return key;
}

} // namespace

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

    // Checkpoint/restore (smtflex::ckpt, DESIGN.md §15). When the process
    // binding is on, look for the newest eligible snapshot of this run's
    // key and resume it instead of cold-starting; either way, the loop
    // below snapshots at every ckpt_interval boundary until the first
    // thread finishes. Hoisted rotation clock: the resident rotation
    // schedule is part of the resumable state.
    std::vector<ThreadSource *> thread_table;
    thread_table.reserve(threads.size());
    for (const auto &thread : threads)
        thread_table.push_back(thread.get());
    const ckpt::ProcessBinding *ckpt_binding = ckpt::processBinding();
    const Cycle ckpt_interval = ckpt_binding ? ckpt_binding->interval : 0;
    std::string ckpt_key;
    Cycle last_ckpt = 0;
    Cycle last_rotation = 0;
    bool resumed = false;
    if (ckpt_binding) {
        ckpt_key =
            multiProgramCkptKey(config_, specs, placement, seed, limits,
                                samplingInterval_, samplingMaxPoints_);
        // Eligible = taken strictly before this run's budgets finish and
        // before its cycle limit, with matching thread count and warmups
        // (budget-independent prefix; see multiProgramCkptKey).
        const auto eligible = [&](const ckpt::Snapshot &snap) {
            if (snap.kind != ckpt::SnapshotKind::kChipRun)
                return false;
            if (snap.cycle == 0 || snap.cycle >= limits.maxCycles)
                return false;
            try {
                ckpt::Reader m(snap.meta);
                m.count(specs.size(), "ckpt meta threads");
                for (const ThreadSpec &spec : specs) {
                    const std::uint64_t retired = m.u64();
                    const std::uint64_t warmup = m.u64();
                    if (warmup != spec.warmup)
                        return false;
                    if (retired >= spec.warmup + spec.budget)
                        return false;
                }
                m.expectEnd();
            } catch (const ckpt::CorruptSnapshot &) {
                return false;
            }
            return true;
        };
        const auto t0 = std::chrono::steady_clock::now();
        if (auto snap = ckpt_binding->store.best(ckpt_key, eligible)) {
            // The payload passed CRC + key echo, so structural failure
            // below means a snapshot-format bug, not disk corruption —
            // and the chip is already partially mutated, so falling back
            // to a cold start is no longer possible. Fail loudly.
            try {
                ckpt::Reader r(snap->payload);
                for (auto &thread : threads)
                    thread->loadState(r);
                loadState(r, thread_table);
                r.count(shares.size(), "slot shares");
                for (auto &share : shares) {
                    share.resident = r.u32();
                    if (share.resident >= share.threads.size())
                        throw ckpt::CorruptSnapshot(
                            "ckpt: resident thread out of range");
                }
                last_rotation = r.u64();
                r.expectEnd();
            } catch (const ckpt::CorruptSnapshot &e) {
                fatal("ckpt: CRC-valid snapshot for key '", ckpt_key,
                      "' failed structural restore (", e.what(),
                      "); remove ", ckpt_binding->store.dir());
            }
            last_ckpt = now_;
            resumed = true;
            auto &cs = ckpt::processStats();
            cs.hits.fetch_add(1, std::memory_order_relaxed);
            cs.resumedCycles.fetch_add(now_, std::memory_order_relaxed);
            cs.resumeMs.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
            inform("ckpt: ", config_.name, " resumed at cycle ", now_);
        } else {
            ckpt::processStats().misses.fetch_add(
                1, std::memory_order_relaxed);
        }
    }

    if (!resumed) {
        for (const auto &share : shares)
            attach(share.core, share.slot,
                   threads[share.threads[0]].get());

        // Functional warmup: every thread's resident working set is
        // installed on its core and in the LLC before timing starts.
        std::vector<WarmSpec> warm;
        warm.reserve(specs.size());
        for (std::uint32_t i = 0; i < specs.size(); ++i) {
            warm.push_back({specs[i].profile, AddressSpace::forThread(i),
                            placement.entries[i].core});
        }
        warmAllCaches(warm);
    }

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
    const auto sync_finished = [&] {
        if (now_ % 256 == 0 || !time_sharing)
            finished = finished_eager;
    };
    // The fast-forward path checks for rotation both after the step and
    // after the jump (either can land on a quantum boundary), so the
    // rotation itself must be idempotent per cycle. (last_rotation is
    // hoisted above: it is restored on resume.)
    const auto rotate_shares = [&] {
        if (!time_sharing || now_ % limits.quantum != 0 ||
            now_ == last_rotation)
            return;
        last_rotation = now_;
        for (auto &share : shares) {
            if (share.threads.size() < 2)
                continue;
            detach(share.core, share.slot);
            share.resident = (share.resident + 1) %
                static_cast<std::uint32_t>(share.threads.size());
            attach(share.core, share.slot,
                   threads[share.threads[share.resident]].get());
        }
    };
    // Periodic snapshot. Only at ckpt_interval boundaries, and only
    // while no thread has finished its budget (the pre-finish state is
    // budget-independent, so any later run sharing the key can resume
    // it — warm-start). wakeAllCores() first settles all deferred
    // fast-forward accounting into the strict-equivalent state that
    // saveState requires; since the uninterrupted run passes through
    // that exact all-awake state here too, a resumed run continues
    // bit-identically (flushCore is result-neutral, so the extra wake
    // churn never shows in results).
    const auto maybe_checkpoint = [&] {
        if (ckpt_interval == 0 || now_ == last_ckpt ||
            now_ % ckpt_interval != 0 || finished_eager != 0)
            return;
        last_ckpt = now_;
        wakeAllCores();
        ckpt::Writer meta;
        meta.u32(static_cast<std::uint32_t>(threads.size()));
        for (const auto &thread : threads) {
            meta.u64(thread->retired());
            meta.u64(thread->warmup());
        }
        ckpt::Writer payload;
        for (const auto &thread : threads)
            thread->saveState(payload);
        saveState(payload, thread_table);
        payload.u32(static_cast<std::uint32_t>(shares.size()));
        for (const auto &share : shares)
            payload.u32(share.resident);
        payload.u64(last_rotation);
        ckpt_binding->store.save({ckpt::SnapshotKind::kChipRun, ckpt_key,
                                  now_, meta.take(), payload.take()});
    };
    while (finished < threads.size() && now_ < limits.maxCycles) {
        if (fastForward_)
            stepCores(); // idle cores sleep instead of ticking
        else
            tick();
        rotate_shares();
        sync_finished();
        maybe_checkpoint();

        // When every core sleeps, jump straight to the earliest wake.
        // The jump happens only after this cycle's rotation and
        // completion sampling, and clamps to time-sharing quantum
        // boundaries (thread rotation must run at exactly the strict
        // cycles) and — while a finish has happened but has not been
        // observed yet — to the 256-cycle completion-sampling
        // boundaries, so the loop exits at exactly the strict run's
        // cycle. No retire can happen inside a sleep span, so the
        // completion counter cannot advance across a jump.
        if (fastForward_ && finished < threads.size() &&
            now_ < limits.maxCycles) {
            Cycle bound = limits.maxCycles;
            if (time_sharing) {
                bound = std::min(
                    bound, (now_ / limits.quantum + 1) * limits.quantum);
                if (finished_eager != finished)
                    bound = std::min(bound, (now_ / 256 + 1) * 256);
            }
            // Snapshots happen at exact interval boundaries; never jump
            // across one.
            if (ckpt_interval != 0)
                bound = std::min(
                    bound, (now_ / ckpt_interval + 1) * ckpt_interval);
            jumpIdleSpan(bound);
            rotate_shares();
            sync_finished();
            maybe_checkpoint();
        }
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
    result.metrics = registry_.snapshot();
    return result;
}

telemetry::Snapshot
rebuildResultMetrics(const SimResult &result)
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
