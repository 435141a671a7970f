/**
 * @file
 * The serve load generator: K concurrent connections replaying a
 * deterministic request mix against a server, measuring throughput and
 * latency percentiles and reporting the server's cache behaviour. Used
 * by the `smtflex_loadgen` tool and driven in-process by the loopback
 * e2e test (which also verifies responses byte-for-byte).
 */

#ifndef SMTFLEX_SERVE_LOADGEN_H
#define SMTFLEX_SERVE_LOADGEN_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/client.h"
#include "serve/json.h"

namespace smtflex {
namespace serve {

struct LoadGenOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 7333;
    /**
     * Multi-target mode: when non-empty, connection k dials
     * targets[k % targets.size()] round-robin and host/port above are
     * ignored. Lets one loadgen spread a closed loop over a coordinator
     * fleet (or compare N backends side by side). The live monitor and
     * the post-run stats snapshot use the first target.
     */
    std::vector<std::pair<std::string, std::uint16_t>> targets;
    /** Concurrent connections (each one closed-loop). */
    unsigned connections = 8;
    unsigned requestsPerConnection = 50;
    /** Seed of the deterministic request sequence. */
    std::uint64_t seed = 1;
    /**
     * Request mix as `op=weight` pairs, e.g. "ping=2,run=4,sweep=1,
     * isolated=1,schedule=1". Weights are relative integers; ops with
     * weight 0 are never sent.
     */
    std::string mix = "ping=2,run=4,sweep=1,isolated=1";
    /** deadline_ms attached to every simulation request (0 = none). */
    std::uint64_t deadlineMs = 0;
    /** delay_ms attached to ping requests (0 = inline pings). */
    std::uint64_t pingDelayMs = 0;
    /** Distinct simulation variants per op — smaller pools mean more
     * server-side cache hits and coalescing. */
    unsigned distinct = 6;
    /** Instruction budget/warmup of generated run requests (kept small:
     * the loadgen measures the serving path, not the simulator). */
    std::uint64_t budget = 2'000;
    std::uint64_t warmup = 500;
    /**
     * Expected "output" text per request canonical key. When a response's
     * request key is present here, the output is compared byte-for-byte
     * and mismatches are counted (the loopback e2e correctness check).
     */
    std::map<std::string, std::string> expectedOutputs;

    /**
     * Chaos mode: between well-formed requests every connection
     * periodically misbehaves, then reconnects and resumes. The server
     * must shrug every mode off — stay up, keep other connections
     * unaffected, and answer the post-chaos well-formed requests.
     *   ""              no chaos (default)
     *   "disconnect"    abruptly close mid-exchange (request sent, reply
     *                   abandoned)
     *   "partial-frame" send a prefix of a valid frame, hang briefly,
     *                   then vanish
     *   "garbage"       send random bytes that are not a valid frame
     */
    std::string chaos;
    /** A chaos act fires roughly every chaosEvery requests (>= 1). */
    unsigned chaosEvery = 3;

    /**
     * Live monitoring: when > 0, a monitor thread on its own connection
     * polls the server's stats op every statsIntervalMs and inform()s a
     * one-line snapshot (requests/executed/cache_hits/queue_depth) while
     * the load runs. 0 = off.
     */
    std::uint64_t statsIntervalMs = 0;

    /** Client-side robustness knobs applied to every connection. */
    RetryPolicy retry;
};

struct LoadGenReport
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t deadline = 0;
    std::uint64_t otherErrors = 0;
    std::uint64_t mismatches = 0; ///< outputs differing from expected
    std::uint64_t chaosEvents = 0; ///< chaos acts performed
    std::uint64_t reconnects = 0;  ///< client reconnects (chaos + retry)
    double seconds = 0.0;
    double throughput = 0.0; ///< completed requests per second
    double p50Us = 0.0, p90Us = 0.0, p99Us = 0.0, maxUs = 0.0;

    // Server-side counters snapshotted after the run.
    std::uint64_t serverCacheHits = 0;
    std::uint64_t serverCoalesced = 0;
    std::uint64_t serverExecuted = 0;
    double cacheHitRate = 0.0; ///< hits / (hits + coalesced + executed)

    /** Human-readable multi-line summary. */
    std::string summary() const;
};

/**
 * The deterministic pool of simulation requests the generator draws from
 * (without ids/deadlines). Exposed so tests can precompute the expected
 * output of every request the generator can possibly send.
 */
std::vector<Json> loadgenRequestPool(const LoadGenOptions &options);

/** Run the load; fatal() on connection failures. */
LoadGenReport runLoadGen(const LoadGenOptions &options);

} // namespace serve
} // namespace smtflex

#endif // SMTFLEX_SERVE_LOADGEN_H
