/**
 * @file
 * smtflex::serve — simulation-as-a-service.
 *
 * A single epoll I/O thread owns the listener, every connection's state
 * machine (incremental frame decoding on reads, buffered flushing on
 * writes) and request admission. Admitted work flows through a bounded
 * BoundedQueue to one dispatcher thread, which drains it in batches onto
 * the smtflex::exec pool via exec::mapItems and posts rendered responses
 * back to the I/O thread over a completion queue and a wake pipe.
 *
 * Admission policy, in order:
 *   1. ping (undelayed), stats and metrics are answered inline on the
 *      I/O thread;
 *   2. a memoised response (ResponseCache, canonical request key) is
 *      answered inline — a cache hit;
 *   3. a request whose key is already in flight attaches itself as a
 *      waiter on that computation — coalescing; it consumes no queue slot
 *      and every waiter gets the one result;
 *   4. otherwise the request must win a slot in the bounded queue; when
 *      the queue is full the client immediately receives an `overloaded`
 *      error (429 semantics) — requests are never silently dropped and
 *      never pile up unboundedly.
 *
 * Deadlines: a request carrying deadline_ms that is still queued when the
 * deadline passes is answered with a `deadline` error instead of running.
 *
 * Shutdown (SIGINT/SIGTERM via installSignalHandlers, or requestStop()):
 * the listener closes, new requests on live connections get
 * `shutting_down`, queued and running work drains to completion, every
 * response is flushed, the ResultCache is flushed, and run() returns.
 * Connections that will not accept their responses (a client that stopped
 * reading) are force-closed after drainTimeoutMs — or immediately on a
 * second stop signal — so drain cannot hang on a stalled peer.
 */

#ifndef SMTFLEX_SERVE_SERVER_H
#define SMTFLEX_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "serve/response_cache.h"
#include "study/study_engine.h"
#include "telemetry/registry.h"

namespace smtflex {
namespace serve {

struct ServerOptions
{
    /** Listen address; loopback by default (the loadgen and e2e tests
     * talk over loopback). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see Server::port()). */
    std::uint16_t port = 7333;
    /** Bound of the admission queue (backpressure point). 0 = 2x the
     * pool's concurrency. */
    std::size_t queueCapacity = 0;
    /** Largest batch handed to the pool per dispatcher wakeup. 0 = the
     * pool's concurrency. */
    std::size_t batchMax = 0;
    /** Frame payload cap for requests and responses. */
    std::size_t maxFrame = kDefaultMaxFrame;
    /** Memoised-response entries kept in memory. */
    std::size_t responseCacheCapacity = 4096;
    /** During graceful drain, connections whose responses cannot be
     * flushed within this window (a client that stopped reading) are
     * force-closed so shutdown always completes. 0 = wait forever. */
    std::uint64_t drainTimeoutMs = 5'000;
    /** Study options (budget/warmup/seed defaults, ResultCache path). */
    StudyOptions study = StudyOptions();
    /**
     * When set, the run/sweep/isolated simulation ops are delegated to
     * this hook instead of the local StudyEngine — the seam the dist
     * coordinator plugs into to stay wire-compatible while sharding the
     * work across backends. The hook runs on pool worker threads (like
     * any simulation job), returns the full response body, and may throw
     * FatalError for a `failed` reply. All other ops (ping, stats,
     * metrics, cache_pull/cache_push, sweep_chunk) keep their local
     * paths.
     */
    std::function<Json(const Request &)> simExecutor;
};

/** Monotonically increasing counters, readable while serving. */
struct ServerStats
{
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> requestsReceived{0};
    std::atomic<std::uint64_t> responsesSent{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> overloaded{0};
    std::atomic<std::uint64_t> deadlineExpired{0};
    std::atomic<std::uint64_t> badRequests{0};
    std::atomic<std::uint64_t> shutdownRejected{0};
    std::atomic<std::uint64_t> executed{0};

    /** The telemetry field list. The names are the `stats` op's JSON keys
     * (wire compatibility: the stats body is a walk over these). */
    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("connections", &ServerStats::connectionsAccepted);
        f("requests", &ServerStats::requestsReceived);
        f("responses", &ServerStats::responsesSent);
        f("cache_hits", &ServerStats::cacheHits);
        f("coalesced", &ServerStats::coalesced);
        f("overloaded", &ServerStats::overloaded);
        f("deadline_expired", &ServerStats::deadlineExpired);
        f("bad_requests", &ServerStats::badRequests);
        f("shutdown_rejected", &ServerStats::shutdownRejected);
        f("executed", &ServerStats::executed);
    }
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Create the listening socket and resolve an ephemeral port. Called
     * implicitly by run(); call it directly when another thread needs
     * port() before the loop starts. fatal() when the address is busy.
     */
    void bind();

    /** The bound port (after bind()). */
    std::uint16_t port() const { return boundPort_; }

    /** Serve until requestStop(); blocks the calling thread. */
    void run();

    /**
     * Initiate graceful shutdown. Async-signal-safe (one write() on a
     * pipe) and callable from any thread; run() returns once in-flight
     * work has drained and responses are flushed.
     */
    void requestStop();

    /** Route SIGINT/SIGTERM to requestStop() of @p server (one server
     * per process; pass nullptr to detach). */
    static void installSignalHandlers(Server *server);

    const ServerStats &stats() const { return stats_; }

    /** The server's experiment driver (the dist coordinator renders its
     * federated sweeps through it). */
    StudyEngine &engine() { return engine_; }

    /**
     * The serve.* metric registry. Additional subsystems (dist.*) may
     * register before run() starts; walks happen on the I/O thread, so
     * late registrations would race. Counter cells and gauges backed by
     * atomics are safe to bump from any thread.
     */
    telemetry::MetricRegistry &registry() { return registry_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::uint64_t id = 0;
        FrameDecoder decoder;
        std::string outBuffer;
        std::size_t outOffset = 0;
        bool wantWrite = false;
        bool closeAfterFlush = false;
    };

    /** One admitted unit of work. */
    struct Job
    {
        Request request;
        std::string key; ///< canonical key; synthetic & unique for pings
        std::chrono::steady_clock::time_point deadline;
        bool hasDeadline = false;
    };

    /** A finished computation, ready to fan out to waiters. */
    struct Completion
    {
        std::string key;
        std::string body; ///< response JSON without the per-request id
        bool cacheable = false;
    };

    /** A (connection, request-id) pair awaiting a shared computation. */
    struct Waiter
    {
        std::uint64_t connectionId = 0;
        std::uint64_t requestId = 0;
        bool hasRequestId = false;
    };

    // ---- I/O thread ----
    void eventLoop();
    void acceptConnections();
    void handleReadable(Connection &conn);
    void handleWritable(Connection &conn);
    void processPayload(Connection &conn, const std::string &payload);
    void admit(Connection &conn, Request request);
    void sendBody(Connection &conn, const Json &body, std::uint64_t id);
    /** Frame @p payload and flush. Bodies above maxFrame are replaced by
     * a `response_too_large` error carrying @p id (the per-request id,
     * for correlation), keeping the client's decoder parseable. */
    void sendRaw(Connection &conn, std::string payload,
                 std::uint64_t id = 0);
    void closeConnection(std::uint64_t connection_id);
    void forceCloseStalled();
    void drainCompletions();
    void updateEpoll(Connection &conn);
    bool drained() const;

    // ---- dispatcher thread ----
    void dispatcherLoop();
    Completion executeJob(const Job &job);
    void postCompletion(Completion completion);

    /** Register every serve.* metric (ctor helper): the ServerStats
     * atomics as counters, the queue/cache/drain figures as gauges. */
    void registerMetrics();

    Json statsBody() const;
    Json metricsBody() const;
    Json cachePullBody(const CachePullRequest &req);
    Json cachePushBody(const CachePushRequest &req);

    ServerOptions options_;
    StudyEngine engine_;
    ResponseCache responses_;
    ServerStats stats_;
    /** The serve.* metric spine: the stats/metrics ops are walks over it.
     * Counter cells are atomics (bumped from both threads); the gauge
     * lambdas touch I/O-thread-owned state, so walks run on the I/O
     * thread only — exactly where statsBody always ran. */
    telemetry::MetricRegistry registry_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    int wakePipe_[2] = {-1, -1};
    std::uint16_t boundPort_ = 0;
    bool draining_ = false;
    std::chrono::steady_clock::time_point drainDeadline_;

    /** Connection ids double as epoll user data; 0..2 tag the listener
     * and the stop/wake pipes, so connections start at 3. */
    std::uint64_t nextConnectionId_ = 3;
    std::uint64_t pingSequence_ = 0;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections_;
    /** canonical key -> waiters of the in-flight computation (I/O thread
     * only). */
    std::unordered_map<std::string, std::vector<Waiter>> inFlight_;

    std::unique_ptr<BoundedQueue<Job>> queue_;
    std::size_t batchMax_ = 1;
    std::thread dispatcher_;
    std::atomic<std::size_t> executing_{0};

    mutable std::mutex completionsMutex_;
    std::deque<Completion> completions_;
};

} // namespace serve
} // namespace smtflex

#endif // SMTFLEX_SERVE_SERVER_H
