#include "private_hierarchy.h"

#include <algorithm>

#include "common/log.h"

namespace smtflex {

PrivateHierarchy::PrivateHierarchy(const CoreParams &params,
                                   std::uint32_t core_id,
                                   MemorySystem *shared)
    : params_(params), coreId_(core_id), shared_(shared),
      l1i_(params.name + ".l1i", params.l1i),
      l1d_(params.name + ".l1d", params.l1d),
      l2_(params.name + ".l2", params.l2)
{
    if (!shared_)
        fatal("PrivateHierarchy: null shared memory system");
    if (params_.mshrs > kMshrRing)
        fatal("PrivateHierarchy: mshrs exceeds ring capacity");
}

std::uint32_t
PrivateHierarchy::outstandingMisses(Cycle now) const
{
    std::uint32_t count = 0;
    for (const Cycle completion : mshrCompletion_)
        count += (completion > now);
    return count;
}

bool
PrivateHierarchy::wouldRejectData(Cycle now, Addr addr) const
{
    // Mirror of accessInternal()'s reject fast path — the only way
    // dataAccess() returns nullopt. Must stay exactly in sync with it.
    if (mshrIndex_ < params_.mshrs)
        return false;
    const Cycle kth_recent =
        mshrCompletion_[(mshrIndex_ - params_.mshrs) % kMshrRing];
    return kth_recent > now && !l1d_.contains(addr) &&
           !l2_.contains(addr) && outstandingMisses(now) >= params_.mshrs;
}

Cycle
PrivateHierarchy::earliestPendingFill(Cycle now) const
{
    Cycle earliest = kCycleNever;
    for (const Cycle completion : mshrCompletion_) {
        if (completion > now)
            earliest = std::min(earliest, completion);
    }
    return earliest;
}

bool
PrivateHierarchy::allocateMshr(Cycle now, Cycle completion)
{
    if (outstandingMisses(now) >= params_.mshrs)
        return false;
    mshrCompletion_[mshrIndex_ % kMshrRing] = completion;
    ++mshrIndex_;
    return true;
}

std::optional<MemAccess>
PrivateHierarchy::accessInternal(Cycle now, Addr addr, bool is_write,
                                 bool is_instr, bool mark_prefetched)
{
    SetAssocCache &l1 = is_instr ? l1i_ : l1d_;

    // Data accesses are rejected when a fill would be needed but no MSHR
    // can take it. O(1) fast path: if the params_.mshrs-th most recent
    // miss has already completed, a slot is certainly free (miss
    // completions are near-monotonic through the serialised bus), so the
    // full check and the extra tag probes are skipped.
    if (!is_instr && mshrIndex_ >= params_.mshrs) {
        const Cycle kth_recent =
            mshrCompletion_[(mshrIndex_ - params_.mshrs) % kMshrRing];
        if (kth_recent > now && !l1.contains(addr) &&
            !l2_.contains(addr) &&
            outstandingMisses(now) >= params_.mshrs) {
            return std::nullopt;
        }
    }

    const auto l1_result = l1.access(addr, is_write, mark_prefetched);
    if (l1_result.writeback)
        l2_.access(l1_result.victimAddr, true);
    if (l1_result.hit) {
        return MemAccess{now + params_.latL1, MemLevel::kL1,
                         l1_result.hitPrefetched};
    }

    const auto l2_result = l2_.access(addr, false);
    if (l2_result.writeback)
        shared_->writebackLine(now, l2_result.victimAddr, coreId_);
    if (l2_result.hit)
        return MemAccess{now + params_.latL1 + params_.latL2, MemLevel::kL2};

    // Miss past the private hierarchy: fetch from the shared system.
    const Cycle fill = shared_->fetchLine(now + params_.latL1 + params_.latL2,
                                          addr, coreId_);
    // For instruction fetches this may find the ring full and simply not
    // track the fill; data fills always have a slot (pre-checked above).
    allocateMshr(now, fill);
    return MemAccess{fill, MemLevel::kBeyond};
}

std::optional<MemAccess>
PrivateHierarchy::dataAccess(Cycle now, Addr addr, bool is_write)
{
    const auto access = accessInternal(now, addr, is_write, false);
    // Optional next-line data prefetch (tagged): triggered by demand
    // misses and by first touches of prefetched lines, issued without a
    // completion dependency (and without recursing).
    if (params_.dataPrefetch && access && !prefetching_ &&
        (access->level != MemLevel::kL1 || access->l1PrefetchHit)) {
        const Addr next = lineAlign(addr) + kLineSize;
        if (!l1d_.contains(next)) {
            prefetching_ = true;
            accessInternal(now, next, false, false, /*mark_prefetched=*/true);
            prefetching_ = false;
        }
    }
    return access;
}

MemAccess
PrivateHierarchy::instrAccess(Cycle now, Addr addr)
{
    const MemAccess access = *accessInternal(now, addr, false, true);
    // Next-line instruction prefetcher: sequential fetch misses are hidden
    // by fetching the following line eagerly (no completion dependency;
    // bandwidth and cache insertion are accounted normally).
    const Addr next = addr + kLineSize;
    if (!l1i_.contains(next))
        accessInternal(now, next, false, true);
    return access;
}

void
PrivateHierarchy::invalidateAll()
{
    l1i_.invalidateAll();
    l1d_.invalidateAll();
    l2_.invalidateAll();
    mshrCompletion_.fill(0);
}

} // namespace smtflex
