#include "cache.h"

#include "common/log.h"

namespace smtflex {

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geometry)
    : name_(std::move(name)), geometry_(geometry)
{
    if (!geometry_.lineSizeValid())
        fatal("cache ", name_, ": lineSize must be a power of two (got ",
              geometry_.lineSize, ")");
    if (geometry_.assoc == 0)
        fatal("cache ", name_, ": bad geometry");
    if (geometry_.sizeBytes % geometry_.lineSize != 0)
        fatal("cache ", name_, ": size not a multiple of line size");
    if (geometry_.numLines() % geometry_.assoc != 0)
        fatal("cache ", name_, ": lines not divisible by associativity");
    numSets_ = geometry_.numSets();
    if (numSets_ == 0)
        fatal("cache ", name_, ": zero sets");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(geometry_.lineSize));
    // Modulo placement supports non-power-of-two set counts (6 KB, 48 KB
    // caches in Table 1); the mask is the same function when it exists.
    pow2Sets_ = std::has_single_bit(numSets_);
    lines_.resize(numSets_ * geometry_.assoc);
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write, bool mark_prefetched)
{
    const Addr line_addr = addr >> lineShift_;
    Line *const base = &lines_[firstWay(line_addr)];

    ++stats_.accesses;
    ++lruClock_;

    Line *victim = base;
    for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == line_addr) {
            line.lruStamp = lruClock_;
            line.dirty = line.dirty || is_write;
            const bool was_prefetched = line.prefetched;
            line.prefetched = false; // demand touch consumes the tag
            return {.hit = true, .hitPrefetched = was_prefetched,
                    .writeback = false, .victimAddr = 0};
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }

    // Miss: allocate over the LRU (or an invalid) way.
    ++stats_.misses;
    CacheAccessResult result;
    if (victim->valid) {
        ++stats_.evictions;
        if (victim->dirty) {
            ++stats_.writebacks;
            result.writeback = true;
            result.victimAddr = victim->tag << lineShift_;
        }
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = is_write;
    victim->prefetched = mark_prefetched;
    victim->lruStamp = lruClock_;
    return result;
}

void
SetAssocCache::install(Addr addr)
{
    const Addr line_addr = addr >> lineShift_;
    Line *const base = &lines_[firstWay(line_addr)];
    ++lruClock_;

    Line *victim = base;
    for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == line_addr) {
            line.lruStamp = lruClock_;
            return;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = false;
    victim->prefetched = false;
    victim->lruStamp = lruClock_;
}

SetAssocCache::ColdFill::ColdFill(SetAssocCache &cache,
                                  std::uint64_t installs)
    : cache_(cache), stamp_(installs)
{
    // Every access and install advances the clock, so a zero clock means
    // every line is still the constructor's invalid one.
    if (cache_.lruClock_ != 0)
        fatal("cache ", cache_.name_, ": cold fill of a touched cache");
    cache_.lruClock_ = installs;
}

void
SetAssocCache::ColdFill::prepend(Addr addr)
{
    if (stamp_ == 0)
        panic("cache ", cache_.name_, ": cold fill past its install count");
    const std::uint64_t stamp = stamp_--;
    const std::uint32_t assoc = cache_.geometry_.assoc;
    const Addr line_addr = addr >> cache_.lineShift_;
    Line *const base = &cache_.lines_[cache_.firstWay(line_addr)];
    // Ways fill in index order, so the last one is valid iff the set
    // already holds its `assoc` newest lines: this one was evicted.
    if (base[assoc - 1].valid)
        return;
    for (std::uint32_t way = 0; way < assoc; ++way) {
        Line &line = base[way];
        if (!line.valid) {
            line.valid = true;
            line.tag = line_addr;
            line.lruStamp = stamp;
            return;
        }
        if (line.tag == line_addr)
            return; // a later install of this line set its stamp
    }
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr line_addr = addr >> lineShift_;
    const Line *const base = &lines_[firstWay(line_addr)];
    for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
        if (base[way].valid && base[way].tag == line_addr)
            return true;
    }
    return false;
}

void
SetAssocCache::invalidateAll()
{
    for (auto &line : lines_)
        line = Line();
}

} // namespace smtflex
