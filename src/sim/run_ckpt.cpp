#include "sim/run_ckpt.h"

#include <chrono>

#include "ckpt/store.h"
#include "common/log.h"

namespace smtflex {

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

RunCheckpoint::RunCheckpoint(
    const ChipConfig &config, const std::vector<ThreadSpec> &specs,
    const Placement &placement, std::uint64_t seed, const RunLimits &limits,
    Cycle sampling_interval, std::size_t sampling_max_points,
    const std::vector<std::unique_ptr<SimThread>> &threads)
    : binding_(ckpt::processBinding()), maxCycles_(limits.maxCycles),
      threads_(threads)
{
    if (!binding_)
        return;
    interval_ = binding_->interval;
    key_ = multiProgramCkptKey(config, specs, placement, seed, limits,
                               sampling_interval, sampling_max_points);
    configName_ = config.name;
}

bool
RunCheckpoint::resume(
    const std::function<void(ckpt::Reader &)> &restore) const
{
    if (!binding_)
        return false;
    // Eligible = taken strictly before this run's budgets finish and
    // before its cycle limit, with matching thread count and warmups
    // (budget-independent prefix; see multiProgramCkptKey).
    const auto eligible = [&](const ckpt::Snapshot &snap) {
        if (snap.cycle == 0 || snap.cycle >= maxCycles_)
            return false;
        try {
            ckpt::Reader m(snap.meta);
            m.count(threads_.size(), "ckpt meta threads");
            for (const auto &thread : threads_) {
                const std::uint64_t retired = m.u64();
                const std::uint64_t warmup = m.u64();
                if (warmup != thread->warmup())
                    return false;
                if (retired >= thread->warmup() + thread->budget())
                    return false;
            }
            m.expectEnd();
        } catch (const ckpt::CorruptSnapshot &) {
            return false;
        }
        return true;
    };
    auto &stats = ckpt::processStats();
    const auto t0 = std::chrono::steady_clock::now();
    const auto snap = binding_->store.best(key_, eligible);
    if (!snap) {
        stats.misses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // The payload passed CRC + key echo, so structural failure below
    // means a snapshot-format bug, not disk corruption — and the chip is
    // already partially mutated, so falling back to a cold start is no
    // longer possible. Fail loudly.
    try {
        ckpt::Reader r(snap->payload);
        for (const auto &thread : threads_)
            thread->loadState(r);
        restore(r);
        r.expectEnd();
    } catch (const ckpt::CorruptSnapshot &e) {
        fatal("ckpt: CRC-valid snapshot for key '", key_,
              "' failed structural restore (", e.what(), "); remove ",
              binding_->store.dir());
    }
    stats.hits.fetch_add(1, std::memory_order_relaxed);
    stats.resumedCycles.fetch_add(snap->cycle, std::memory_order_relaxed);
    stats.resumeMs.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    inform("ckpt: ", configName_, " resumed at cycle ", snap->cycle);
    return true;
}

void
RunCheckpoint::save(Cycle cycle,
                    const std::function<void(ckpt::Writer &)> &save) const
{
    ckpt::Writer meta;
    meta.u32(static_cast<std::uint32_t>(threads_.size()));
    for (const auto &thread : threads_) {
        meta.u64(thread->retired());
        meta.u64(thread->warmup());
    }
    ckpt::Writer payload;
    for (const auto &thread : threads_)
        thread->saveState(payload);
    save(payload);
    binding_->store.save({ckpt::SnapshotKind::kChipRun, key_, cycle,
                          meta.take(), payload.take()});
}

} // namespace smtflex
