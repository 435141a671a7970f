/**
 * @file
 * Full crossbar between the cores and the shared LLC.
 *
 * The paper deliberately uses a full crossbar so that interconnect contention
 * does not favour few-big-core configurations. We model a fixed traversal
 * latency plus per-LLC-bank occupancy: distinct cores never contend in the
 * switch itself; they only serialise at a destination bank, exactly the
 * property the paper wants.
 */

#ifndef SMTFLEX_XBAR_CROSSBAR_H
#define SMTFLEX_XBAR_CROSSBAR_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "telemetry/registry.h"

namespace smtflex {

/** Configuration of the crossbar + LLC banking. */
struct CrossbarConfig
{
    /** One-way traversal latency in cycles. */
    std::uint32_t hopLatency = 4;
    /** Number of LLC banks (requests to one bank serialise). */
    std::uint32_t numBanks = 8;
    /** Bank service occupancy per request, cycles. */
    std::uint32_t bankOccupancy = 4;
};

/** Statistics for the crossbar / LLC front side. */
struct CrossbarStats
{
    std::uint64_t requests = 0;
    std::uint64_t totalQueueCycles = 0;

    double avgQueueCycles() const
    {
        return requests ? static_cast<double>(totalQueueCycles) / requests
                        : 0.0;
    }

    /** The telemetry field list — single source of the metric names. */
    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("requests", &CrossbarStats::requests);
        f("total_queue_cycles", &CrossbarStats::totalQueueCycles);
    }
};

/**
 * Timestamp-based crossbar model.
 *
 * request() returns the cycle at which the request reaches the LLC bank
 * (after traversal + any bank queueing) and reserves the bank; the response
 * hop back is accounted by the caller via responseLatency().
 */
class Crossbar : public telemetry::StatsProvider<CrossbarStats>
{
  public:
    explicit Crossbar(const CrossbarConfig &config);

    /**
     * Issue a request toward the LLC at cycle @p now for line @p addr.
     * @return the cycle at which the LLC lookup can start.
     */
    Cycle request(Cycle now, Addr addr);

    /** Latency of the response hop back to a core. */
    std::uint32_t responseLatency() const { return config_.hopLatency; }

    const CrossbarConfig &config() const { return config_; }

  private:
    CrossbarConfig config_;
    /** Next free cycle per LLC bank. */
    std::vector<Cycle> bankFree_;
};

} // namespace smtflex

#endif // SMTFLEX_XBAR_CROSSBAR_H
