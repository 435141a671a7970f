/**
 * @file
 * A core's private cache hierarchy: L1I, L1D and unified L2, with an MSHR
 * limit on outstanding misses past the L2.
 *
 * All SMT contexts of a core share this hierarchy, so cache contention (and
 * the constructive sharing the paper observes for smart co-schedules)
 * emerges naturally from the interleaved address streams.
 */

#ifndef SMTFLEX_UARCH_PRIVATE_HIERARCHY_H
#define SMTFLEX_UARCH_PRIVATE_HIERARCHY_H

#include <array>
#include <cstdint>
#include <optional>

#include "cache/cache.h"
#include "common/types.h"
#include "uarch/core_params.h"
#include "uarch/memory_system.h"

namespace smtflex {

/** Which level served an access (for statistics and power accounting). */
enum class MemLevel : std::uint8_t { kL1 = 1, kL2, kBeyond };

/** Outcome of a data or instruction access. */
struct MemAccess
{
    /** Global cycle at which the value is available to the core. */
    Cycle completion = 0;
    /** Deepest level involved. */
    MemLevel level = MemLevel::kL1;
    /** L1 hit on a line installed by the prefetcher (first demand touch);
     * re-arms the next-line prefetch stream. */
    bool l1PrefetchHit = false;
};

/**
 * Private two-level hierarchy in front of the shared memory system.
 * All times are global cycles; the owning core converts to core cycles.
 */
class PrivateHierarchy
{
  public:
    PrivateHierarchy(const CoreParams &params, std::uint32_t core_id,
                     MemorySystem *shared);

    /**
     * Data access at global cycle @p now. Returns std::nullopt when all
     * MSHRs are busy (the core must retry next cycle); otherwise the access
     * is performed and its completion time returned.
     */
    std::optional<MemAccess> dataAccess(Cycle now, Addr addr, bool is_write);

    /**
     * Instruction fetch of line @p addr. Instruction fetches are never
     * rejected (the front end has a dedicated fill path); they allocate an
     * MSHR opportunistically when one is free.
     */
    MemAccess instrAccess(Cycle now, Addr addr);

    /** Number of misses currently outstanding past the L2. */
    std::uint32_t outstandingMisses(Cycle now) const;

    /**
     * True when dataAccess(@p now, @p addr, ...) would certainly be
     * rejected for lack of a free MSHR — the exact reject fast path of
     * accessInternal(), evaluated as a pure probe (no statistics, no LRU
     * movement). Used by the cores' fast-forward analysis: while this
     * holds, a retrying context performs no state change other than
     * counting an mshrStallEvent.
     */
    bool wouldRejectData(Cycle now, Addr addr) const;

    /**
     * Earliest global cycle strictly after @p now at which an outstanding
     * miss completes (i.e. the MSHR occupancy, and with it the reject
     * outcome above, can next change); kCycleNever when nothing is
     * outstanding.
     */
    Cycle earliestPendingFill(Cycle now) const;

    const SetAssocCache &l1i() const { return l1i_; }
    const SetAssocCache &l1d() const { return l1d_; }
    const SetAssocCache &l2() const { return l2_; }

    /** Drop all cached state (used between independent simulations). */
    void invalidateAll();

    /**
     * Functional warmup of an untouched hierarchy, fed newest-first (see
     * SetAssocCache::ColdFill): every line goes to the L2 and to the L1I
     * (code) or L1D (data). Zero simulated time, no statistics.
     */
    class ColdFill
    {
      public:
        /** Start the fill for @p code_lines code and @p data_lines data
         * installs; fails loudly when any of the caches was touched. */
        ColdFill(PrivateHierarchy &h, std::uint64_t code_lines,
                 std::uint64_t data_lines)
            : l1i_(h.l1i_, code_lines), l1d_(h.l1d_, data_lines),
              l2_(h.l2_, code_lines + data_lines)
        {
        }

        void prepend(Addr addr, bool is_instr)
        {
            l2_.prepend(addr);
            (is_instr ? l1i_ : l1d_).prepend(addr);
        }

      private:
        SetAssocCache::ColdFill l1i_, l1d_, l2_;
    };

  private:
    std::optional<MemAccess> accessInternal(Cycle now, Addr addr,
                                            bool is_write, bool is_instr,
                                            bool mark_prefetched = false);
    /** Record an outstanding miss completing at @p completion; returns false
     * if no MSHR is free at @p now. */
    bool allocateMshr(Cycle now, Cycle completion);

    const CoreParams params_;
    std::uint32_t coreId_;
    MemorySystem *shared_;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;

    /** Completion times of the most recent misses (MSHR occupancy). */
    static constexpr std::uint32_t kMshrRing = 32;
    std::array<Cycle, kMshrRing> mshrCompletion_{};
    std::uint64_t mshrIndex_ = 0;
    /** Guard against prefetch recursion. */
    bool prefetching_ = false;
};

} // namespace smtflex

#endif // SMTFLEX_UARCH_PRIVATE_HIERARCHY_H
