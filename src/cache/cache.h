/**
 * @file
 * Set-associative cache with true LRU replacement.
 *
 * Used for the private L1I/L1D/L2 caches of every core and for the shared
 * last-level cache. The tag array is real (not a miss-rate curve), so
 * capacity and conflict behaviour — including SMT threads sharing a private
 * cache and multiple cores sharing the LLC, both central to the paper —
 * emerge from the simulated address streams.
 */

#ifndef SMTFLEX_CACHE_CACHE_H
#define SMTFLEX_CACHE_CACHE_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "telemetry/registry.h"

namespace smtflex {

/** Geometry of one cache. Sizes need not be powers of two (the paper uses
 * 6 KB and 48 KB small-core caches); the set index uses modulo placement,
 * a mask when the set count happens to be a power of two. The line size
 * must be a power of two. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineSize = kLineSize;

    /** True when lineSize is a power of two (numLines() needs it > 0). */
    bool lineSizeValid() const { return std::has_single_bit(lineSize); }
    std::uint64_t numLines() const { return sizeBytes / lineSize; }
    std::uint64_t numSets() const { return numLines() / assoc; }
};

/** Aggregate statistics of one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    double missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** The telemetry field list — single source of the metric names. */
    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("accesses", &CacheStats::accesses);
        f("misses", &CacheStats::misses);
        f("evictions", &CacheStats::evictions);
        f("writebacks", &CacheStats::writebacks);
    }
};

/** Result of a single cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** The hit line was installed by a prefetch and is touched by demand
     * for the first time (tagged prefetching: the prefetcher re-arms). */
    bool hitPrefetched = false;
    /** True when a dirty victim was evicted (must be written back). */
    bool writeback = false;
    /** Line address of the dirty victim when writeback is set. */
    Addr victimAddr = 0;
};

/**
 * A write-back, write-allocate, true-LRU set-associative cache.
 */
class SetAssocCache : public telemetry::StatsProvider<CacheStats>
{
  public:
    SetAssocCache(std::string name, const CacheGeometry &geometry);

    /**
     * Access one line. On a miss the line is allocated (write-allocate) and
     * the LRU victim is evicted.
     *
     * @param addr byte address (any offset within the line).
     * @param is_write marks the line dirty.
     * @param mark_prefetched tag an allocated line as prefetched.
     */
    CacheAccessResult access(Addr addr, bool is_write,
                             bool mark_prefetched = false);

    /** Probe without updating state or statistics. */
    bool contains(Addr addr) const;

    /**
     * Functionally install a clean line without touching statistics
     * (functional warmup of sampled simulation: the line appears as if it
     * had been fetched earlier; any victim is dropped silently). The
     * per-line reference for ColdFill.
     */
    void install(Addr addr);

    /**
     * Bulk functional warmup of an untouched cache (no access() or
     * install() since construction): leaves exactly the state that
     * install() of a whole line sequence would, but is fed the sequence
     * newest-first. Install-only LRU keeps, per set, the `assoc` most
     * recently installed distinct lines (the LRU stack property), each
     * stamped with the position of its last install, and ends with the
     * LRU clock at the install count. So a prepended line is written only
     * when its set still has room and it is not there yet; once a set is
     * full, every older line of it costs one probe.
     *
     * The ways a set's survivors occupy may differ from the forward
     * installs', which nothing can observe: a tag sits in at most one way,
     * a miss fills some invalid way while one exists (all invalid ways are
     * alike), and otherwise evicts the unique minimum stamp.
     */
    class ColdFill
    {
      public:
        /** Start the fill of @p cache with a sequence of @p installs
         * lines; fails loudly when the cache has been touched. */
        ColdFill(SetAssocCache &cache, std::uint64_t installs);

        /** The install just before those already prepended. */
        void prepend(Addr addr);

      private:
        SetAssocCache &cache_;
        /** Stamp the forward install of the next prepended line gets. */
        std::uint64_t stamp_;
    };

    /** Drop every line (loses dirty data; used by tests/resets). */
    void invalidateAll();

    const CacheGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
    };

    /** Index in lines_ of the first way of the set that @p line_addr (a
     * line number, not a byte address) maps to. */
    std::uint64_t firstWay(Addr line_addr) const
    {
        const std::uint64_t set =
            pow2Sets_ ? line_addr & (numSets_ - 1) : line_addr % numSets_;
        return set * geometry_.assoc;
    }

    std::string name_;
    CacheGeometry geometry_;
    std::uint64_t numSets_;
    /** log2(lineSize): byte address -> line number. */
    std::uint32_t lineShift_;
    /** The set count is a power of two: index with a mask, not `%`. */
    bool pow2Sets_;
    std::vector<Line> lines_; // numSets_ x assoc, row-major
    std::uint64_t lruClock_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_CACHE_CACHE_H
