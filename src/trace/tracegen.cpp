#include "tracegen.h"

#include <algorithm>
#include <cassert>

namespace smtflex {

namespace {

/** Private segments are spaced far apart so programs never share lines. */
constexpr Addr kPrivateStride = Addr{1} << 36;
constexpr Addr kPrivateStart = Addr{1} << 40;
/** Regions inside a segment are spaced by 1 GiB (covers every region). */
constexpr Addr kRegionStride = Addr{1} << 30;

/** Stateless 64-bit mix (final avalanche of MurmurHash3). */
std::uint64_t
mix64(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/**
 * Base address of region @p region_idx inside the segment at
 * @p segment_base, jittered by a deterministic line-aligned offset.
 *
 * Without the jitter every segment and region starts on a 2^30-byte
 * boundary, so the same regions of all threads map onto identical cache
 * sets and overflow the associativity of the shared caches long before
 * their capacity — a pure artefact of the synthetic layout. Real loaders
 * and heaps do not align allocations like that.
 */
Addr
jitteredRegionBase(Addr segment_base, std::size_t region_idx)
{
    const std::uint64_t h =
        mix64(segment_base ^ ((region_idx + 1) * 0x9e3779b97f4a7c15ULL));
    const Addr jitter_lines = h % ((Addr{1} << 29) / kLineSize);
    return segment_base + (region_idx + 1) * kRegionStride +
        jitter_lines * kLineSize;
}

} // namespace

AddressSpace
AddressSpace::forThread(std::uint32_t global_thread_id)
{
    AddressSpace space;
    // The per-thread jitter decorrelates the code segments' cache sets.
    const Addr jitter =
        (mix64(global_thread_id + 0x5eedULL) % (Addr{1} << 14)) * kLineSize;
    space.privateBase =
        kPrivateStart + global_thread_id * kPrivateStride + jitter;
    space.sharedBase = 0;
    space.sharedProb = 0.0;
    return space;
}

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               std::uint64_t seed, std::uint64_t stream,
                               const AddressSpace &space)
    : profile_(&profile), seed_(seed), stream_(stream), space_(space),
      rng_(seed, stream), depDist_(profile.meanDepDist),
      streamCursor_(profile.regions.size(), 0)
{
    profile.validate();
    // Data regions sit one-or-more strides above the code segment (which
    // occupies the base of the private segment), at jittered offsets.
    regionBases_.reserve(profile.regions.size());
    for (std::size_t i = 0; i < profile.regions.size(); ++i) {
        regionBases_.push_back({jitteredRegionBase(space_.privateBase, i),
                                jitteredRegionBase(space_.sharedBase, i)});
    }
    const InstrMix &mix = profile.mix;
    cdfLoad_ = mix.load;
    cdfStore_ = cdfLoad_ + mix.store;
    cdfIntAlu_ = cdfStore_ + mix.intAlu;
    cdfIntMul_ = cdfIntAlu_ + mix.intMul;
    cdfFp_ = cdfIntMul_ + mix.fp;
    fetchAddr_ = space_.privateBase;
}

void
TraceGenerator::reset()
{
    rng_ = Rng(seed_, stream_);
    std::fill(streamCursor_.begin(), streamCursor_.end(), 0);
    fetchAddr_ = space_.privateBase;
    generated_ = 0;
}

Addr
TraceGenerator::nextDataAddr()
{
    const auto &regions = profile_->regions;
    assert(!regions.empty());

    // Pick a region by probability.
    double u = rng_.nextDouble();
    std::size_t idx = 0;
    for (; idx + 1 < regions.size(); ++idx) {
        if (u < regions[idx].probability)
            break;
        u -= regions[idx].probability;
    }
    const MemRegion &region = regions[idx];

    const bool shared =
        space_.sharedProb > 0.0 && rng_.nextBool(space_.sharedProb);

    if (region.streaming) {
        // Sequential word-granularity walk, wrapping at the region end:
        // eight consecutive accesses touch one line before moving on, so a
        // unit-stride sweep misses once per line, as real streaming code
        // does. The walk position is thread-local (streaming data has no
        // reuse), also for shared placements.
        const std::uint64_t words = region.bytes / 8;
        const std::uint64_t word = streamCursor_[idx];
        streamCursor_[idx] = (word + 1) % words;
        return regionBases_[idx][shared] + word * 8;
    }
    // Skewed random reuse: accesses concentrate towards the region's low
    // addresses (the "hot end"), giving the convex miss-rate-vs-capacity
    // curves of real code.
    const std::uint64_t lines = region.bytes / kLineSize;
    double u_skewed = rng_.nextDouble();
    double u_pow = u_skewed;
    for (std::uint32_t k = 1; k < profile_->accessSkew; ++k)
        u_pow *= u_skewed;
    const auto line = static_cast<std::uint64_t>(
        u_pow * static_cast<double>(lines));
    // Random offset within the line (does not affect cache behaviour but
    // keeps addresses realistic).
    const Addr offset = rng_.nextRange(kLineSize / 8) * 8;
    return regionBases_[idx][shared] +
        std::min(line, lines - 1) * kLineSize + offset;
}

void
TraceGenerator::forEachResidentLine(
    const BenchmarkProfile &profile, const AddressSpace &space,
    std::uint64_t max_region_bytes,
    const std::function<void(Addr, bool)> &visit)
{
    for (const ResidentRun &run :
         residentRuns(profile, space, max_region_bytes)) {
        for (std::uint64_t k = 0; k < run.count; ++k)
            visit(run.at(k), run.isCode);
    }
}

std::vector<ResidentRun>
TraceGenerator::residentRuns(const BenchmarkProfile &profile,
                             const AddressSpace &space,
                             std::uint64_t max_region_bytes)
{
    // Largest qualifying region first, so the hottest (smallest) regions
    // end up most recently used after installation.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < profile.regions.size(); ++i) {
        const MemRegion &region = profile.regions[i];
        if (!region.streaming && region.bytes <= max_region_bytes)
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return profile.regions[a].bytes > profile.regions[b].bytes;
    });
    std::vector<ResidentRun> runs;
    for (const std::size_t idx : order) {
        const MemRegion &region = profile.regions[idx];
        // Lines are visited from the cold (high) end down to the hot (low)
        // end, so after LRU installation the hottest lines are the most
        // recently used. Threads with partially shared data touch both
        // placements.
        const auto cold_to_hot = [&](Addr base) {
            runs.push_back({.first = base + region.bytes - kLineSize,
                            .step = -std::int64_t{kLineSize},
                            .count = region.bytes / kLineSize,
                            .isCode = false});
        };
        if (space.sharedProb > 0.0)
            cold_to_hot(jitteredRegionBase(space.sharedBase, idx));
        if (space.sharedProb < 1.0)
            cold_to_hot(jitteredRegionBase(space.privateBase, idx));
    }
    runs.push_back({.first = space.privateBase,
                    .step = std::int64_t{kLineSize},
                    .count = (profile.codeFootprint + kLineSize - 1) /
                        kLineSize,
                    .isCode = true});
    return runs;
}

MicroOp
TraceGenerator::next()
{
    MicroOp op;

    // Instruction class from the mix.
    const double u = rng_.nextDouble();
    if (u < cdfLoad_)
        op.cls = OpClass::kLoad;
    else if (u < cdfStore_)
        op.cls = OpClass::kStore;
    else if (u < cdfIntAlu_)
        op.cls = OpClass::kIntAlu;
    else if (u < cdfIntMul_)
        op.cls = OpClass::kIntMul;
    else if (u < cdfFp_)
        op.cls = OpClass::kFpOp;
    else
        op.cls = OpClass::kBranch;

    // Register dependency distance.
    if (!rng_.nextBool(profile_->depNoneProb)) {
        const std::uint32_t dist = rng_.nextGeometric(depDist_);
        op.depDist = static_cast<std::uint8_t>(std::min<std::uint32_t>(
            dist, 255));
    }

    // Data address.
    if (op.isMem())
        op.addr = nextDataAddr();

    // Fetch stream: sequential 4-byte instructions; taken branches jump to a
    // random location in the code footprint.
    const Addr prev_line = lineAlign(fetchAddr_);
    if (op.cls == OpClass::kBranch) {
        op.mispredict = rng_.nextBool(profile_->branchMispredictRate);
        if (rng_.nextBool(profile_->branchTakenProb)) {
            // Most jumps stay in the hot code region; the rest roam the
            // full footprint (cold paths, rare call targets).
            const std::uint64_t span =
                rng_.nextBool(profile_->jumpLocality)
                    ? std::min(profile_->hotCodeBytes,
                               profile_->codeFootprint)
                    : profile_->codeFootprint;
            const std::uint64_t code_lines =
                std::max<std::uint64_t>(span / kLineSize, 1);
            fetchAddr_ = space_.privateBase +
                rng_.nextRange(code_lines) * kLineSize;
        } else {
            fetchAddr_ += 4;
        }
    } else {
        fetchAddr_ += 4;
    }
    // Keep the linear fetch pointer inside the code footprint.
    if (fetchAddr_ >= space_.privateBase + profile_->codeFootprint)
        fetchAddr_ = space_.privateBase;

    if (lineAlign(fetchAddr_) != prev_line || generated_ == 0) {
        op.fetchLineCross = true;
        op.fetchAddr = lineAlign(fetchAddr_);
    }

    ++generated_;
    return op;
}

} // namespace smtflex
