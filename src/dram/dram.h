/**
 * @file
 * Main-memory model: 8 independent banks with a fixed access time, behind a
 * bandwidth-limited off-chip bus (Table 1: 8 banks, 45 ns, 8 GB/s).
 *
 * The bus is the paper's crucial shared bottleneck: at high thread counts,
 * memory-intensive workloads saturate it, flattening the performance
 * differences between multi-core configurations (paper Fig. 4b, Section 8.2).
 */

#ifndef SMTFLEX_DRAM_DRAM_H
#define SMTFLEX_DRAM_DRAM_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "telemetry/registry.h"

namespace smtflex {

/** DRAM + off-chip bus configuration. */
struct DramConfig
{
    std::uint32_t numBanks = 8;
    /** Bank access time in nanoseconds. */
    double accessTimeNs = 45.0;
    /** Off-chip bus bandwidth in GB/s (per 64-byte line transfer). */
    double busBandwidthGBps = 8.0;
    /** Core/uncore clock frequency in GHz (converts ns to cycles). */
    double clockGHz = 2.66;

    /** Bank access time in cycles. */
    std::uint32_t bankLatencyCycles() const;
    /** Bus occupancy of one line transfer in cycles. */
    std::uint32_t busTransferCycles() const;
    /** Whether busBandwidthGBps is finite, positive and fast enough for
     * busTransferCycles() to fit (about 4e-8 GB/s at 2.66 GHz). */
    bool bandwidthValid() const;
};

/** DRAM statistics. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t totalLatencyCycles = 0; ///< reads only
    std::uint64_t busBusyCycles = 0;

    double avgReadLatency() const
    {
        return reads ? static_cast<double>(totalLatencyCycles) / reads : 0.0;
    }

    /** The telemetry field list — single source of the metric names. */
    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("reads", &DramStats::reads);
        f("writes", &DramStats::writes);
        f("total_latency_cycles", &DramStats::totalLatencyCycles);
        f("bus_busy_cycles", &DramStats::busBusyCycles);
    }
};

/**
 * Timestamp-based DRAM model. read() returns the completion cycle of a
 * demand line fill; write() accounts a writeback's bank/bus occupancy
 * without a completion dependency (posted writes).
 */
class DramModel : public telemetry::StatsProvider<DramStats>
{
  public:
    explicit DramModel(const DramConfig &config);

    /** Demand read of the line containing @p addr, issued at @p now.
     * @return cycle at which the line is available at the LLC. */
    Cycle read(Cycle now, Addr addr);

    /** Posted writeback of the line containing @p addr at @p now. */
    void write(Cycle now, Addr addr);

    const DramConfig &config() const { return config_; }

    /** Observed bus utilisation over @p elapsed cycles (0..1). */
    double busUtilisation(Cycle elapsed) const;


  private:
    Cycle schedule(Cycle now, Addr addr);

    DramConfig config_;
    std::vector<Cycle> bankFree_;
    Cycle busFree_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_DRAM_DRAM_H
