#include "backend_pool.h"

#include <chrono>

#include "common/log.h"

namespace smtflex {
namespace dist {

Backend::Backend(std::size_t index, BackendConfig config,
                 const BackendPoolOptions &options)
    : index_(index), config_(std::move(config)), options_(options),
      label_(config_.host + ":" + std::to_string(config_.port))
{
}

serve::Json
Backend::callLocked(const serve::Json &request,
                    const serve::RetryPolicy &policy)
{
    // Caller holds clientMutex_.
    client_.setRetryPolicy(policy);
    if (!client_.connected())
        client_.connect(config_.host, config_.port);
    const serve::Json reply = client_.call(request);
    if (reply.has("ok") && !reply.at("ok").asBool()) {
        const std::string code = reply.has("error")
            ? reply.at("error").asString()
            : "unknown";
        const std::string message =
            reply.has("message") ? reply.at("message").asString() : "";
        fatal("backend ", label_, ": ", code,
              message.empty() ? "" : ": ", message);
    }
    return reply;
}

serve::Json
Backend::call(const serve::Json &request)
{
    serve::RetryPolicy policy;
    policy.maxRetries = 0; // failover/requeue is the coordinator's job
    policy.opTimeoutMs = options_.opTimeoutMs;
    policy.connectTimeoutMs = options_.connectTimeoutMs;

    const auto start = std::chrono::steady_clock::now();
    try {
        const std::lock_guard<std::mutex> lock(clientMutex_);
        const serve::Json reply = callLocked(request, policy);
        const auto elapsed = std::chrono::duration_cast<
            std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                       start);
        recordSuccess(static_cast<std::uint64_t>(elapsed.count()));
        return reply;
    } catch (const FatalError &) {
        recordFailure();
        throw;
    }
}

bool
Backend::probe()
{
    serve::RetryPolicy policy;
    policy.maxRetries = 0;
    policy.opTimeoutMs = options_.probeTimeoutMs;
    policy.connectTimeoutMs = options_.probeTimeoutMs;

    serve::Json ping = serve::Json::object();
    ping.set("op", serve::Json::string("ping"));
    serve::Json stats = serve::Json::object();
    stats.set("op", serve::Json::string("stats"));

    try {
        const std::lock_guard<std::mutex> lock(clientMutex_);
        // Connect from scratch: a probe decides liveness, and a stale
        // half-dead connection must not vouch for the backend. The
        // policy goes in first so its connect deadline governs the
        // handshake.
        client_.setRetryPolicy(policy);
        client_.connect(config_.host, config_.port);
        callLocked(ping, policy);
        const serve::Json reply = callLocked(stats, policy);
        if (reply.has("stats") &&
            reply.at("stats").has("queue_depth"))
            queueDepth_.store(
                reply.at("stats").at("queue_depth").asU64());
    } catch (const FatalError &) {
        recordFailure();
        return false;
    }
    consecutiveFailures_.store(0);
    healthy_.store(true);
    return true;
}

void
Backend::recordSuccess(std::uint64_t latency_us)
{
    calls_.fetch_add(1);
    consecutiveFailures_.store(0);
    healthy_.store(true);
    lastLatencyUs_.store(latency_us);
}

void
Backend::recordFailure()
{
    failures_.fetch_add(1);
    const unsigned run = consecutiveFailures_.fetch_add(1) + 1;
    if (run >= options_.quarantineAfter && healthy_.exchange(false)) {
        quarantines_.fetch_add(1);
        warn("dist: backend ", label_, " quarantined after ", run,
             " consecutive failures");
    }
}

void
Backend::registerMetrics(telemetry::MetricRegistry &registry)
{
    const std::string prefix =
        "dist.backend." + std::to_string(index_) + ".";
    registry.info(prefix + "endpoint", [this] { return label_; });
    registry.gaugeBool(prefix + "healthy",
                       [this] { return healthy_.load(); });
    registry.gauge(prefix + "calls", [this] { return calls_.load(); });
    registry.gauge(prefix + "failures",
                   [this] { return failures_.load(); });
    registry.gauge(prefix + "quarantines",
                   [this] { return quarantines_.load(); });
    registry.gauge(prefix + "queue_depth",
                   [this] { return queueDepth_.load(); });
    registry.gauge(prefix + "latency_us",
                   [this] { return lastLatencyUs_.load(); });
}

BackendPool::BackendPool(const std::vector<BackendConfig> &configs,
                         BackendPoolOptions options)
{
    for (std::size_t i = 0; i < configs.size(); ++i)
        backends_.push_back(
            std::make_unique<Backend>(i, configs[i], options));
}

std::vector<std::size_t>
BackendPool::probeAll()
{
    std::vector<std::size_t> healthy;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        if (backends_[i]->probe())
            healthy.push_back(i);
    }
    return healthy;
}

std::vector<std::size_t>
BackendPool::healthyIndices() const
{
    std::vector<std::size_t> healthy;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        if (backends_[i]->healthy())
            healthy.push_back(i);
    }
    return healthy;
}

void
BackendPool::registerMetrics(telemetry::MetricRegistry &registry)
{
    for (auto &backend : backends_)
        backend->registerMetrics(registry);
}

} // namespace dist
} // namespace smtflex
