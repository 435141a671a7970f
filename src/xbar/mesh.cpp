#include "mesh.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace smtflex {

MeshNoc::MeshNoc(const MeshConfig &config, std::uint32_t num_cores)
    : config_(config), numCores_(num_cores)
{
    if (num_cores == 0 || config_.numBanks == 0)
        fatal("MeshNoc: need cores and banks");
    side_ = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(num_cores))));
    bankFree_.assign(config_.numBanks, 0);
}

std::uint32_t
MeshNoc::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / kLineSize) %
                                      config_.numBanks);
}

std::uint32_t
MeshNoc::bankNode(std::uint32_t bank) const
{
    // Banks are spread round-robin over the core nodes.
    return bank % numCores_;
}

std::uint32_t
MeshNoc::hops(Addr addr, std::uint32_t core) const
{
    const std::uint32_t node = bankNode(bankOf(addr));
    const int cx = static_cast<int>(core % side_);
    const int cy = static_cast<int>(core / side_);
    const int bx = static_cast<int>(node % side_);
    const int by = static_cast<int>(node / side_);
    const int distance = std::abs(cx - bx) + std::abs(cy - by);
    return static_cast<std::uint32_t>(distance) + 1; // at least one router
}

Cycle
MeshNoc::request(Cycle now, Addr addr, std::uint32_t core)
{
    const Cycle arrive = now + hops(addr, core) * config_.hopLatency;
    const std::uint32_t bank = bankOf(addr);
    const Cycle start = std::max(arrive, bankFree_[bank]);
    bankFree_[bank] = start + config_.bankOccupancy;
    return start;
}

std::uint32_t
MeshNoc::responseLatency(Addr addr, std::uint32_t core) const
{
    return hops(addr, core) * config_.hopLatency;
}

} // namespace smtflex
