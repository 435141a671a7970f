/**
 * @file
 * smtflex::dist — BackendPool: the coordinator's view of its serve
 * fleet. One Backend wraps one serve::Client (mutex-guarded — the
 * protocol is request/response per connection), tracks health through
 * ping probes, quarantines a backend after repeated failures (the
 * fault-layer idiom: misbehaviour is contained, not fatal), and feeds
 * the per-backend dist.* telemetry: call/failure counters, last-seen
 * queue depth (backpressure, from the backend's `stats` op), and the
 * last call's latency.
 *
 * Probes use short connect/op deadlines (serve::Client's poll-based
 * timeouts), so a backend that accepts but never answers — or that
 * black-holes the TCP handshake — fails fast instead of stalling the
 * fleet for a full op timeout.
 */

#ifndef SMTFLEX_DIST_BACKEND_POOL_H
#define SMTFLEX_DIST_BACKEND_POOL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/json.h"
#include "telemetry/registry.h"

namespace smtflex {
namespace dist {

/** One backend endpoint. */
struct BackendConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

struct BackendPoolOptions
{
    /** Consecutive failures before a backend is quarantined. */
    unsigned quarantineAfter = 3;
    /** Connect + op deadline of a health probe (ping / stats). */
    std::uint64_t probeTimeoutMs = 2'000;
    /** Op deadline of a work call (sweep_chunk may simulate for a
     * while); 0 = wait forever. */
    std::uint64_t opTimeoutMs = 120'000;
    /** Connect deadline of a work call. */
    std::uint64_t connectTimeoutMs = 2'000;
};

class Backend
{
  public:
    Backend(std::size_t index, BackendConfig config,
            const BackendPoolOptions &options);

    const std::string &label() const { return label_; }
    std::size_t index() const { return index_; }

    /**
     * Send @p request and return the parsed reply. Throws FatalError on
     * connection failure, timeout, or an error reply (ok:false) — the
     * caller decides between requeue and failover. Success resets the
     * consecutive-failure count; failure bumps it and quarantines the
     * backend once the threshold is reached.
     */
    serve::Json call(const serve::Json &request);

    /** Ping with probe deadlines; refresh queue depth from the `stats`
     * op on success. Updates health state. @return now healthy. */
    bool probe();

    bool healthy() const { return healthy_.load(); }

    std::uint64_t failures() const { return failures_.load(); }

    /** Register this backend's dist.backend.<i>.* gauges on
     * @p registry. Call before the owning server runs. */
    void registerMetrics(telemetry::MetricRegistry &registry);

  private:
    serve::Json callLocked(const serve::Json &request,
                           const serve::RetryPolicy &policy);
    void recordSuccess(std::uint64_t latency_us);
    void recordFailure();

    std::size_t index_;
    BackendConfig config_;
    BackendPoolOptions options_;
    std::string label_;

    std::mutex clientMutex_;
    serve::Client client_;

    std::atomic<bool> healthy_{true};
    std::atomic<unsigned> consecutiveFailures_{0};
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> failures_{0};
    std::atomic<std::uint64_t> quarantines_{0};
    std::atomic<std::uint64_t> queueDepth_{0};
    std::atomic<std::uint64_t> lastLatencyUs_{0};
};

class BackendPool
{
  public:
    BackendPool(const std::vector<BackendConfig> &configs,
                BackendPoolOptions options);

    std::size_t size() const { return backends_.size(); }
    Backend &at(std::size_t i) { return *backends_[i]; }

    /** Probe every backend (quarantined ones get a second chance) and
     * return the indices now healthy. */
    std::vector<std::size_t> probeAll();

    /** Indices currently marked healthy, without probing. */
    std::vector<std::size_t> healthyIndices() const;

    /** Register every backend's metrics. */
    void registerMetrics(telemetry::MetricRegistry &registry);

  private:
    std::vector<std::unique_ptr<Backend>> backends_;
};

} // namespace dist
} // namespace smtflex

#endif // SMTFLEX_DIST_BACKEND_POOL_H
