/**
 * @file
 * The shared side of the memory hierarchy: crossbar -> shared LLC -> DRAM.
 * Implements the MemorySystem interface the cores' private hierarchies use.
 */

#ifndef SMTFLEX_SIM_SHARED_MEMORY_H
#define SMTFLEX_SIM_SHARED_MEMORY_H

#include <cstdint>

#include "cache/cache.h"
#include "dram/dram.h"
#include "sim/chip_config.h"
#include "uarch/memory_system.h"
#include "xbar/crossbar.h"
#include "xbar/mesh.h"

#include <optional>

namespace smtflex {

/**
 * Crossbar + shared LLC + DRAM. All cores contend here: for LLC capacity,
 * LLC banks and, crucially, off-chip bandwidth.
 */
class SharedMemory : public MemorySystem
{
  public:
    explicit SharedMemory(const ChipConfig &config);

    Cycle fetchLine(Cycle now, Addr addr, std::uint32_t core_id) override;
    void writebackLine(Cycle now, Addr addr, std::uint32_t core_id) override;

    /** Functional warmup: install @p addr into the LLC (no stats). */
    void warmLine(Addr addr) { llc_.install(addr); }
    /** Functional warmup of the untouched LLC with @p installs lines fed
     * newest-first (see SetAssocCache::ColdFill). */
    SetAssocCache::ColdFill llcColdFill(std::uint64_t installs)
    {
        return SetAssocCache::ColdFill(llc_, installs);
    }

    const SetAssocCache &llc() const { return llc_; }
    const DramModel &dram() const { return dram_; }
    const Crossbar &crossbar() const { return xbar_; }

  private:
    /** Interconnect traversal: returns bank-lookup start cycle and the
     * response-hop latency for this request. */
    Cycle traverse(Cycle now, Addr addr, std::uint32_t core_id,
                   std::uint32_t *response_latency);

    std::uint32_t llcLatency_;
    Crossbar xbar_;
    std::optional<MeshNoc> mesh_;
    SetAssocCache llc_;
    DramModel dram_;
};

} // namespace smtflex

#endif // SMTFLEX_SIM_SHARED_MEMORY_H
