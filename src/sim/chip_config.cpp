#include "chip_config.h"

#include "common/log.h"

namespace smtflex {

std::uint32_t
ChipConfig::totalContexts() const
{
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < numCores(); ++i)
        total += contextsOf(i);
    return total;
}

std::uint32_t
ChipConfig::contextsOf(std::uint32_t core) const
{
    if (core >= numCores())
        fatal("ChipConfig ", name, ": bad core index ", core);
    return smtEnabled ? cores[core].maxSmtContexts : 1;
}

ChipConfig
ChipConfig::homogeneous(const std::string &name, const CoreParams &core,
                        std::uint32_t count)
{
    ChipConfig cfg;
    cfg.name = name;
    cfg.cores.assign(count, core);
    cfg.validate();
    return cfg;
}

ChipConfig
ChipConfig::heterogeneous(const std::string &name, std::uint32_t big_count,
                          const CoreParams &small_type,
                          std::uint32_t small_count)
{
    ChipConfig cfg;
    cfg.name = name;
    for (std::uint32_t i = 0; i < big_count; ++i)
        cfg.cores.push_back(CoreParams::big());
    for (std::uint32_t i = 0; i < small_count; ++i)
        cfg.cores.push_back(small_type);
    cfg.validate();
    return cfg;
}

ChipConfig
ChipConfig::withSmt(bool enabled) const
{
    ChipConfig cfg = *this;
    cfg.smtEnabled = enabled;
    return cfg;
}

ChipConfig
ChipConfig::withBandwidth(double gbps) const
{
    ChipConfig cfg = *this;
    cfg.dram.busBandwidthGBps = gbps;
    return cfg;
}

void
ChipConfig::validate() const
{
    if (name.empty())
        fatal("ChipConfig: empty name");
    if (cores.empty())
        fatal("ChipConfig ", name, ": cores must not be empty");
    for (const auto &core : cores)
        core.validate();
    if (llc.sizeBytes == 0)
        fatal("ChipConfig ", name, ": llc.sizeBytes must be > 0");
    if (llc.assoc == 0)
        fatal("ChipConfig ", name, ": llc.assoc must be > 0");
    if (!llc.lineSizeValid())
        fatal("ChipConfig ", name,
              ": llc.lineSize must be a power of two (got ", llc.lineSize,
              ")");
    if (llc.numLines() % llc.assoc != 0)
        fatal("ChipConfig ", name, ": bad LLC geometry (", llc.sizeBytes,
              " bytes not divisible into ", llc.assoc, "-way sets)");
    if (llcLatency == 0)
        fatal("ChipConfig ", name, ": llcLatency must be > 0");
    if (!dram.bandwidthValid())
        fatal("ChipConfig ", name, ": bad dram.busBandwidthGBps ",
              dram.busBandwidthGBps, " (finite, positive, >= ~4e-8)");
    if (chipFreqGHz <= 0.0)
        fatal("ChipConfig ", name, ": bad chip frequency");
}

} // namespace smtflex
