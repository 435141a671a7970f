#include "dram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"

namespace smtflex {

std::uint32_t
DramConfig::bankLatencyCycles() const
{
    return static_cast<std::uint32_t>(std::ceil(accessTimeNs * clockGHz));
}

std::uint32_t
DramConfig::busTransferCycles() const
{
    // Transfer time of one line: lineSize / bandwidth, in cycles.
    const double ns = static_cast<double>(kLineSize) / busBandwidthGBps;
    return static_cast<std::uint32_t>(std::ceil(ns * clockGHz));
}

bool
DramConfig::bandwidthValid() const
{
    if (!std::isfinite(busBandwidthGBps) || busBandwidthGBps <= 0.0)
        return false;
    const double ns = static_cast<double>(kLineSize) / busBandwidthGBps;
    return std::ceil(ns * clockGHz) <=
        static_cast<double>(std::numeric_limits<std::uint32_t>::max());
}

DramModel::DramModel(const DramConfig &config) : config_(config)
{
    if (config_.numBanks == 0)
        fatal("DramModel: numBanks must be > 0");
    if (!config_.bandwidthValid())
        fatal("DramModel: bad bandwidth ", config_.busBandwidthGBps,
              " GB/s (finite, positive, >= ~4e-8)");
    bankFree_.assign(config_.numBanks, 0);
}

Cycle
DramModel::schedule(Cycle now, Addr addr)
{
    // Bank selection by line address (interleaved).
    const std::uint32_t bank =
        static_cast<std::uint32_t>((addr / kLineSize) % config_.numBanks);

    const Cycle bank_start = std::max(now, bankFree_[bank]);
    const Cycle bank_done = bank_start + config_.bankLatencyCycles();
    bankFree_[bank] = bank_done;

    // The line then occupies the shared off-chip bus.
    const Cycle bus_start = std::max(bank_done, busFree_);
    const Cycle done = bus_start + config_.busTransferCycles();
    busFree_ = done;
    stats_.busBusyCycles += config_.busTransferCycles();
    return done;
}

Cycle
DramModel::read(Cycle now, Addr addr)
{
    const Cycle done = schedule(now, addr);
    ++stats_.reads;
    stats_.totalLatencyCycles += done - now;
    return done;
}

void
DramModel::write(Cycle now, Addr addr)
{
    schedule(now, addr);
    ++stats_.writes;
}

double
DramModel::busUtilisation(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(stats_.busBusyCycles) /
                             static_cast<double>(elapsed));
}

} // namespace smtflex
