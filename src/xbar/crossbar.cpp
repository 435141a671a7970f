#include "crossbar.h"

#include <algorithm>

#include "common/log.h"

namespace smtflex {

Crossbar::Crossbar(const CrossbarConfig &config) : config_(config)
{
    if (config_.numBanks == 0)
        fatal("Crossbar: numBanks must be > 0");
    bankFree_.assign(config_.numBanks, 0);
}

Cycle
Crossbar::request(Cycle now, Addr addr)
{
    const Cycle arrive = now + config_.hopLatency;
    const std::uint32_t bank =
        static_cast<std::uint32_t>((addr / kLineSize) % config_.numBanks);
    const Cycle start = std::max(arrive, bankFree_[bank]);
    bankFree_[bank] = start + config_.bankOccupancy;

    ++stats_.requests;
    stats_.totalQueueCycles += start - arrive;
    return start;
}

} // namespace smtflex
