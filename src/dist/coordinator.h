/**
 * @file
 * smtflex::dist — the distributed sweep fabric's coordinator: one
 * serve::Server that answers the same wire protocol as a backend
 * (existing clients and the loadgen work unchanged) but shards the
 * simulation work across a fleet of `smtflex serve` backends.
 *
 * Division of labour:
 *   - the embedded serve::Server keeps owning the socket loop,
 *     admission, coalescing and response memoisation;
 *   - its simExecutor hook routes run/sweep/isolated to this class;
 *   - `sweep` is the sharded op: the thread-count grid is cut into
 *     chunks (ShardPlanner), one worker thread per healthy backend
 *     drives `sweep_chunk` calls with work stealing, and the returned
 *     ResultCache records land in the coordinator's own cache;
 *   - `run`/`isolated` are forwarded round-robin with failover;
 *   - every response is rendered *locally* from the federated records
 *     (serve::sweepText over a warm cache), so a coordinated response
 *     is byte-identical to a single-node one by construction — if a
 *     record is missing (all backends dead), the local engine
 *     transparently recomputes it, which is slower but still
 *     byte-identical because results are deterministic.
 *
 * Federation: before sharding, the coordinator `cache_pull`s missing
 * records from healthy backends (a warm backend saves the whole fleet
 * the work) and `cache_push`es the records it already holds to the
 * backends about to compute, so nobody re-simulates what the fleet
 * collectively knows.
 *
 * Durability: every record the fleet delivers (chunk replies and pulled
 * records alike) is stored into the coordinator's ResultCache and flushed
 * before the chunk counts as complete. The cache's append-only, CRC-tagged
 * segments are the only durable log: a coordinator restarted on the same
 * `--cache` file after a SIGKILL resumes without recomputing a single
 * delivered chunk.
 */

#ifndef SMTFLEX_DIST_COORDINATOR_H
#define SMTFLEX_DIST_COORDINATOR_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/backend_pool.h"
#include "dist/shard_planner.h"
#include "serve/server.h"

namespace smtflex {
namespace dist {

struct CoordinatorOptions
{
    /** The coordinator's own listen endpoint, queue, study options. */
    serve::ServerOptions server;
    /** The fleet. May be empty: the coordinator then degenerates to a
     * plain single-node server (everything computes locally). */
    std::vector<BackendConfig> backends;
    BackendPoolOptions pool;
    /** Sweep rows per chunk; 0 = auto (spread ~2 chunks per backend so
     * stealing has something to steal). */
    std::size_t chunkRows = 0;
    /** An InFlight chunk older than this may be stolen. */
    std::uint64_t stealAfterMs = 10'000;
    /** Dispatch budget per chunk (first claim + steals + requeues). */
    unsigned maxDispatch = 3;
};

/** Monotonic dist.* counters (referenced by the MetricRegistry). */
struct DistStats
{
    std::atomic<std::uint64_t> sweeps{0};
    std::atomic<std::uint64_t> chunksDispatched{0};
    std::atomic<std::uint64_t> chunksStolen{0};
    std::atomic<std::uint64_t> chunksRequeued{0};
    std::atomic<std::uint64_t> chunkFailures{0};
    std::atomic<std::uint64_t> rowsCompleted{0};
    std::atomic<std::uint64_t> rowsDuplicate{0};
    std::atomic<std::uint64_t> rowsLocal{0};
    std::atomic<std::uint64_t> recordsPulled{0};
    std::atomic<std::uint64_t> recordsPushed{0};
    std::atomic<std::uint64_t> recordsStored{0};
    std::atomic<std::uint64_t> recordsMissingAtRender{0};
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> forwardFailovers{0};
    std::atomic<std::uint64_t> forwardLocal{0};

    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("sweeps", &DistStats::sweeps);
        f("chunks_dispatched", &DistStats::chunksDispatched);
        f("chunks_stolen", &DistStats::chunksStolen);
        f("chunks_requeued", &DistStats::chunksRequeued);
        f("chunk_failures", &DistStats::chunkFailures);
        f("rows_completed", &DistStats::rowsCompleted);
        f("rows_duplicate", &DistStats::rowsDuplicate);
        f("rows_local", &DistStats::rowsLocal);
        f("records_pulled", &DistStats::recordsPulled);
        f("records_pushed", &DistStats::recordsPushed);
        f("records_stored", &DistStats::recordsStored);
        f("records_missing_at_render",
          &DistStats::recordsMissingAtRender);
        f("forwarded", &DistStats::forwarded);
        f("forward_failovers", &DistStats::forwardFailovers);
        f("forward_local", &DistStats::forwardLocal);
    }
};

class Coordinator
{
  public:
    explicit Coordinator(CoordinatorOptions options);

    /** The embedded server (bind/port/run/requestStop pass through). */
    serve::Server &server() { return server_; }
    void bind() { server_.bind(); }
    std::uint16_t port() const { return server_.port(); }
    void run() { server_.run(); }
    void requestStop() { server_.requestStop(); }

    const DistStats &stats() const { return stats_; }
    BackendPool &pool() { return pool_; }

    /**
     * The simExecutor body: answer one run/sweep/isolated request.
     * Public so tests can drive coordination without sockets on the
     * coordinator side. Runs on pool worker threads.
     */
    serve::Json execute(const serve::Request &request);

  private:
    serve::ServerOptions withExecutor(serve::ServerOptions options);

    serve::Json coordinateSweep(const serve::SweepRequest &req);
    serve::Json forward(const serve::Request &request);

    /** Shard @p rows over @p healthy backends; returns when every row
     * is federated into the local cache or the fleet gave up (leftovers
     * fall to the local render). */
    void shardRows(const serve::SweepRequest &req,
                   const std::vector<std::uint32_t> &rows,
                   const std::vector<std::size_t> &healthy);

    /** cache_pull @p keys from healthy backends into the local cache;
     * returns the keys still missing. */
    std::vector<std::string>
    pullRecords(const std::vector<std::string> &keys,
                const std::vector<std::size_t> &healthy);

    /** cache_push locally-known records under @p keys to @p backend. */
    void pushRecords(const std::vector<std::string> &keys,
                     Backend &backend);

    /** Store a reply's {"records":{key:[v,...]}} member into the local
     * cache and flush it, so the records are on disk before the caller
     * acts on them. Returns the number of records stored. */
    std::uint64_t storeRecords(const serve::Json &reply);

    CoordinatorOptions options_;
    serve::Server server_;
    BackendPool pool_;
    DistStats stats_;
    std::atomic<std::size_t> rrNext_{0};
};

} // namespace dist
} // namespace smtflex

#endif // SMTFLEX_DIST_COORDINATOR_H
