/**
 * @file
 * Deterministic synthetic micro-op stream generation from a
 * BenchmarkProfile.
 */

#ifndef SMTFLEX_TRACE_TRACEGEN_H
#define SMTFLEX_TRACE_TRACEGEN_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "trace/profile.h"
#include "trace/uop.h"

namespace smtflex {

/**
 * Address-space placement for one generated thread.
 *
 * Multi-program threads get disjoint private bases (no sharing). Threads of
 * a multi-threaded application additionally direct a fraction of their data
 * accesses to a region base shared by all threads of the application, which
 * models shared data structures in the LLC.
 */
struct AddressSpace
{
    /** Base of this thread's private data segment. */
    Addr privateBase = 0;
    /** Base of the application-wide shared data segment. */
    Addr sharedBase = 0;
    /** Probability that a data access targets the shared segment. */
    double sharedProb = 0.0;

    /** Disjoint private placement for a globally unique thread id. */
    static AddressSpace forThread(std::uint32_t global_thread_id);
};

/** @p count line addresses of a thread's resident working set, @p step
 * bytes apart from @p first (negative: walking a region from its cold end
 * down to its hot end). */
struct ResidentRun
{
    Addr first = 0;
    std::int64_t step = 0;
    std::uint64_t count = 0;
    bool isCode = false;

    Addr at(std::uint64_t k) const
    {
        return first + static_cast<Addr>(step) * k;
    }
};

/**
 * Generates the dynamic micro-op stream of one simulated software thread.
 *
 * Generation is purely incremental (O(1) state per region) and fully
 * deterministic given (profile, seed, stream).
 */
class TraceGenerator
{
  public:
    TraceGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                   std::uint64_t stream, const AddressSpace &space);

    /** Produce the next micro-op. */
    MicroOp next();

    /** Number of ops generated so far. */
    InstrCount generated() const { return generated_; }

    const BenchmarkProfile &profile() const { return *profile_; }

    /**
     * Reset dynamic state to the initial state (same stream will be
     * regenerated). Used when a program restarts after finishing its
     * instruction budget, matching the paper's methodology.
     */
    void reset();

    /**
     * Enumerate the line addresses of the thread's cache-resident working
     * set for functional warmup: every non-streaming data region of at
     * most @p max_region_bytes, followed by the code footprint. Streaming
     * and over-sized regions are skipped — cold misses are their steady
     * state. Lines are visited largest-region-first so that LRU
     * installation leaves the hottest lines most recently used.
     */
    static void
    forEachResidentLine(const BenchmarkProfile &profile,
                        const AddressSpace &space,
                        std::uint64_t max_region_bytes,
                        const std::function<void(Addr, bool)> &visit);

    /** The lines forEachResidentLine visits, in its order, as runs. */
    static std::vector<ResidentRun>
    residentRuns(const BenchmarkProfile &profile, const AddressSpace &space,
                 std::uint64_t max_region_bytes);

  private:
    Addr nextDataAddr();

    const BenchmarkProfile *profile_;
    std::uint64_t seed_;
    std::uint64_t stream_;
    AddressSpace space_;

    Rng rng_;
    /** Dependency distances: geometric with the profile's mean. */
    Rng::Geometric depDist_;
    /** Per data region: its jittered base in the private segment ([0])
     * and in the shared segment ([1]). */
    std::vector<std::array<Addr, 2>> regionBases_;
    /** Per-region streaming cursors (private copy of region walk state). */
    std::vector<std::uint64_t> streamCursor_;
    /** Current fetch address. */
    Addr fetchAddr_ = 0;
    /** Cumulative class thresholds derived from the mix. */
    double cdfLoad_, cdfStore_, cdfIntAlu_, cdfIntMul_, cdfFp_;
    InstrCount generated_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_TRACE_TRACEGEN_H
