/**
 * @file
 * A 2D-mesh network-on-chip alternative to the full crossbar.
 *
 * The paper deliberately uses a crossbar so that interconnect contention
 * does not skew results against many-core designs. This model exists to
 * *test* that rationale (bench_ablation_noc): cores sit on a square grid,
 * LLC banks are distributed across the nodes, and a request pays a per-hop
 * latency over the Manhattan distance plus bank queueing — so a 20-core
 * grid pays more than a 4-core one.
 */

#ifndef SMTFLEX_XBAR_MESH_H
#define SMTFLEX_XBAR_MESH_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smtflex {

/** Mesh NoC parameters. */
struct MeshConfig
{
    /** Per-hop router+link latency in cycles. */
    std::uint32_t hopLatency = 2;
    /** Bank service occupancy per request, cycles. */
    std::uint32_t bankOccupancy = 4;
    /** Number of LLC banks distributed over the grid. */
    std::uint32_t numBanks = 8;
};

/**
 * Timestamp-based mesh model with XY distance and per-bank queueing.
 */
class MeshNoc
{
  public:
    MeshNoc(const MeshConfig &config, std::uint32_t num_cores);

    /** Issue a request from @p core for @p addr at @p now.
     * @return the cycle the LLC bank lookup can start. */
    Cycle request(Cycle now, Addr addr, std::uint32_t core);

    /** Latency of the response back to @p core from @p addr's bank. */
    std::uint32_t responseLatency(Addr addr, std::uint32_t core) const;

    /** Manhattan hops between @p core and @p addr's bank (>= 1). */
    std::uint32_t hops(Addr addr, std::uint32_t core) const;

    /** Grid side length. */
    std::uint32_t side() const { return side_; }


  private:
    std::uint32_t bankOf(Addr addr) const;
    std::uint32_t bankNode(std::uint32_t bank) const;

    MeshConfig config_;
    std::uint32_t numCores_;
    std::uint32_t side_;
    std::vector<Cycle> bankFree_;
};

} // namespace smtflex

#endif // SMTFLEX_XBAR_MESH_H
