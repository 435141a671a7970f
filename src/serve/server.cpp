#include "server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/fault.h"
#include "common/log.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace smtflex {
namespace serve {

namespace {

/** epoll user-data slots below this value are the server's own fds. */
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kStopTag = 1;
constexpr std::uint64_t kWakeTag = 2;

std::atomic<Server *> gSignalServer{nullptr};

void
onTerminationSignal(int)
{
    if (Server *server = gSignalServer.load())
        server->requestStop();
}

void
makePipe(int fds[2])
{
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0)
        fatal("serve: pipe2 failed: ", std::strerror(errno));
}

void
drainPipe(int fd)
{
    char buf[64];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), engine_(options_.study),
      responses_(options_.responseCacheCapacity)
{
    makePipe(stopPipe_);
    makePipe(wakePipe_);
    const std::size_t jobs = exec::ThreadPool::global().concurrency();
    batchMax_ = options_.batchMax ? options_.batchMax : jobs;
    const std::size_t capacity =
        options_.queueCapacity ? options_.queueCapacity : 2 * jobs;
    queue_ = std::make_unique<BoundedQueue<Job>>(capacity);
    registerMetrics();
}

void
Server::registerMetrics()
{
    // The metric names under serve.* are exactly the stats op's JSON keys;
    // statsBody() is a subtree walk, so renaming one here renames it on
    // the wire.
    telemetry::attachCounters(registry_, "serve", stats_);
    // Online-scheduling decision counters (the schedule op's engine path).
    telemetry::attachCounters(registry_, "sched", engine_.schedStats());
    registry_.gauge("serve.queue_depth",
                    [this] { return std::uint64_t{queue_->size()}; });
    registry_.gauge("serve.queue_capacity",
                    [this] { return std::uint64_t{queue_->capacity()}; });
    registry_.gauge("serve.in_flight",
                    [this] { return std::uint64_t{inFlight_.size()}; });
    registry_.gauge("serve.jobs", [] {
        return std::uint64_t{exec::ThreadPool::global().concurrency()};
    });
    registry_.gauge("serve.response_cache_entries",
                    [this] { return std::uint64_t{responses_.size()}; });
    registry_.gauge("serve.result_cache_entries", [this] {
        return std::uint64_t{engine_.resultCache().size()};
    });
    registry_.info("serve.result_cache_path",
                   [this] { return engine_.resultCache().path(); });
    registry_.gauge("serve.result_cache_corrupt_lines", [this] {
        return engine_.resultCache().corruptLinesSkipped();
    });
    registry_.gaugeBool("serve.draining", [this] { return draining_; });
}

Server::~Server()
{
    if (gSignalServer.load() == this)
        installSignalHandlers(nullptr);
    if (dispatcher_.joinable()) {
        queue_->close();
        dispatcher_.join();
    }
    for (auto &[id, conn] : connections_) {
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
    for (const int fd : {stopPipe_[0], stopPipe_[1], wakePipe_[0],
                         wakePipe_[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
Server::installSignalHandlers(Server *server)
{
    gSignalServer.store(server);
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = server ? onTerminationSignal : SIG_DFL;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
}

void
Server::requestStop()
{
    // Async-signal-safe: one write on the pre-opened pipe.
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &byte, 1);
}

void
Server::bind()
{
    if (listenFd_ >= 0)
        return;
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0)
        fatal("serve: socket failed: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
        fatal("serve: invalid listen address '", options_.host, "'");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("serve: cannot bind ", options_.host, ":", options_.port, ": ",
              std::strerror(errno));
    if (::listen(listenFd_, SOMAXCONN) != 0)
        fatal("serve: listen failed: ", std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal("serve: getsockname failed: ", std::strerror(errno));
    boundPort_ = ntohs(addr.sin_port);
}

void
Server::run()
{
    bind();
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        fatal("serve: epoll_create1 failed: ", std::strerror(errno));

    auto watch = [&](int fd, std::uint64_t tag, std::uint32_t events) {
        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = events;
        ev.data.u64 = tag;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            fatal("serve: epoll_ctl failed: ", std::strerror(errno));
    };
    watch(listenFd_, kListenerTag, EPOLLIN);
    watch(stopPipe_[0], kStopTag, EPOLLIN);
    watch(wakePipe_[0], kWakeTag, EPOLLIN);

    dispatcher_ = std::thread([this] { dispatcherLoop(); });
    eventLoop();

    // Drain complete: every queued/in-flight request answered and every
    // response flushed. Persist what the engine learned — atomically, so
    // a crash during shutdown cannot tear the cache — and leave.
    dispatcher_.join();
    engine_.resultCache().checkpoint();
    for (auto &[id, conn] : connections_) {
        ::close(conn->fd);
        conn->fd = -1;
    }
    connections_.clear();
    ::close(epollFd_);
    epollFd_ = -1;
    ::close(listenFd_);
    listenFd_ = -1;
}

bool
Server::drained() const
{
    if (!draining_)
        return false;
    if (!inFlight_.empty() || executing_.load() != 0 || queue_->size() != 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(completionsMutex_);
        if (!completions_.empty())
            return false;
    }
    for (const auto &[id, conn] : connections_) {
        if (conn->outOffset < conn->outBuffer.size())
            return false;
    }
    return true;
}

void
Server::eventLoop()
{
    std::vector<epoll_event> events(64);
    while (true) {
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   draining_ ? 50 : -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("serve: epoll_wait failed: ", std::strerror(errno));
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            const std::uint32_t mask = events[i].events;
            if (tag == kListenerTag) {
                acceptConnections();
            } else if (tag == kStopTag) {
                drainPipe(stopPipe_[0]);
                if (!draining_) {
                    draining_ = true;
                    // Reject new connections; keep serving live ones
                    // until the backlog drains.
                    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
                    queue_->close();
                    if (options_.drainTimeoutMs > 0)
                        drainDeadline_ = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(
                                options_.drainTimeoutMs);
                } else {
                    // A repeated stop signal means "stop waiting": give
                    // up on clients that won't read their responses.
                    forceCloseStalled();
                }
            } else if (tag == kWakeTag) {
                drainPipe(wakePipe_[0]);
                drainCompletions();
            } else {
                const auto it = connections_.find(tag);
                if (it == connections_.end())
                    continue;
                Connection &conn = *it->second;
                if (mask & (EPOLLHUP | EPOLLERR)) {
                    closeConnection(conn.id);
                    continue;
                }
                if (mask & EPOLLIN)
                    handleReadable(conn);
                // The read handler may close the connection; re-check.
                if (connections_.count(tag) && (mask & EPOLLOUT))
                    handleWritable(*connections_.at(tag));
            }
        }
        drainCompletions();
        // Drain must not hang on a client that stopped reading its
        // socket: past the deadline, stalled connections are cut loose
        // (their results stay memoised) so run() can return.
        if (draining_ && options_.drainTimeoutMs > 0 &&
            std::chrono::steady_clock::now() >= drainDeadline_)
            forceCloseStalled();
        if (drained())
            return;
    }
}

void
Server::forceCloseStalled()
{
    std::vector<std::uint64_t> stalled;
    for (const auto &[id, conn] : connections_) {
        if (conn->outOffset < conn->outBuffer.size())
            stalled.push_back(id);
    }
    for (const std::uint64_t id : stalled) {
        warn("serve: force-closing connection ", id,
             " with unflushed output during drain");
        closeConnection(id);
    }
}

void
Server::acceptConnections()
{
    while (true) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            warn("serve: accept failed: ", std::strerror(errno));
            return;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id = nextConnectionId_++;
        conn->decoder = FrameDecoder(options_.maxFrame);

        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            warn("serve: epoll_ctl(conn) failed: ", std::strerror(errno));
            ::close(fd);
            continue;
        }
        stats_.connectionsAccepted.fetch_add(1);
        connections_.emplace(conn->id, std::move(conn));
    }
}

void
Server::handleReadable(Connection &conn)
{
    // Read at most this much per epoll event. A client that streams
    // continuously would otherwise keep read() returning data forever,
    // growing the decode buffer without bound and starving every other
    // connection (the loop runs on the single I/O thread). Leftover bytes
    // are safe: level-triggered epoll reports the fd readable again.
    constexpr std::size_t kReadBudget = 256 * 1024;
    char buf[16 * 1024];
    std::size_t taken = 0;
    while (taken < kReadBudget) {
        // Injection seams: a short read exercises frame reassembly, an
        // EAGAIN storm the level-triggered re-poll (leftover bytes are
        // reported readable again).
        if (fault::shouldFire(fault::Site::kNetEagain))
            break;
        std::size_t want = sizeof(buf);
        if (fault::shouldFire(fault::Site::kNetShortRead))
            want = std::max<std::uint64_t>(
                1, fault::param(fault::Site::kNetShortRead, 1));
        const ssize_t n = ::read(conn.fd, buf, want);
        if (n > 0) {
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
            taken += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0) {
            closeConnection(conn.id);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConnection(conn.id);
        return;
    }

    std::string payload;
    while (true) {
        try {
            if (!conn.decoder.next(payload))
                break;
        } catch (const FatalError &e) {
            // Oversized frame: the stream position is unrecoverable.
            // Mark for close first — sendRaw may flush (and close) the
            // connection synchronously, after which conn is gone.
            stats_.badRequests.fetch_add(1);
            conn.closeAfterFlush = true;
            Json body = makeError("frame_too_large", e.what());
            body.set("id", Json::number(std::uint64_t{0}));
            sendRaw(conn, body.dump());
            return;
        }
        processPayload(conn, payload);
        if (!connections_.count(conn.id))
            return; // processPayload closed it
    }
}

void
Server::processPayload(Connection &conn, const std::string &payload)
{
    stats_.requestsReceived.fetch_add(1);
    Json doc;
    try {
        doc = Json::parse(payload);
    } catch (const FatalError &e) {
        stats_.badRequests.fetch_add(1);
        Json body = makeError("bad_request", e.what());
        body.set("id", Json::number(std::uint64_t{0}));
        sendRaw(conn, body.dump());
        return;
    }

    Request request;
    try {
        request = parseRequest(doc);
    } catch (const FatalError &e) {
        stats_.badRequests.fetch_add(1);
        Json body = makeError("bad_request", e.what());
        body.set("id", Json::number(extractId(doc)));
        sendRaw(conn, body.dump());
        return;
    }

    // Fast paths answered on the I/O thread.
    if (request.op == Op::kStats) {
        sendBody(conn, statsBody(), request.id);
        return;
    }
    if (request.op == Op::kMetrics) {
        sendBody(conn, metricsBody(), request.id);
        return;
    }
    if (request.op == Op::kPing && request.delayMs == 0) {
        sendBody(conn, answerLocally(engine_, request), request.id);
        return;
    }
    // The federation ops read/write the thread-safe ResultCache directly
    // — no simulation, so they are answered inline like stats/metrics.
    if (request.op == Op::kCachePull) {
        sendBody(conn, cachePullBody(request.cachePull), request.id);
        return;
    }
    if (request.op == Op::kCachePush) {
        sendBody(conn, cachePushBody(request.cachePush), request.id);
        return;
    }
    admit(conn, std::move(request));
}

void
Server::admit(Connection &conn, Request request)
{
    if (draining_) {
        stats_.shutdownRejected.fetch_add(1);
        sendBody(conn, makeError("shutting_down", "server is draining"),
                 request.id);
        return;
    }

    std::string key = request.canonicalKey();
    const bool cacheable = !key.empty();
    if (cacheable) {
        if (const auto hit = responses_.lookup(key)) {
            stats_.cacheHits.fetch_add(1);
            sendBody(conn, Json::parse(*hit), request.id);
            return;
        }
    } else {
        // Delayed pings never coalesce: give each a unique key.
        key = "ping;" + std::to_string(conn.id) + ';' +
            std::to_string(pingSequence_++);
    }

    Waiter waiter{conn.id, request.id, request.hasId};
    const auto it = inFlight_.find(key);
    if (it != inFlight_.end()) {
        // Same simulation already on its way: share the computation.
        stats_.coalesced.fetch_add(1);
        it->second.push_back(waiter);
        return;
    }

    Job job;
    job.request = std::move(request);
    job.key = key;
    if (job.request.deadlineMs > 0) {
        job.hasDeadline = true;
        job.deadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(job.request.deadlineMs);
    }
    if (!queue_->tryPush(std::move(job))) {
        stats_.overloaded.fetch_add(1);
        sendBody(conn,
                 makeError("overloaded", "admission queue is full; retry"),
                 waiter.requestId);
        return;
    }
    inFlight_.emplace(std::move(key), std::vector<Waiter>{waiter});
}

namespace {

Json
jsonFromMetric(const telemetry::MetricValue &value)
{
    switch (value.type()) {
      case telemetry::MetricValue::Type::kU64:
        return Json::number(value.asU64());
      case telemetry::MetricValue::Type::kDouble:
        return Json::number(value.asDouble());
      case telemetry::MetricValue::Type::kBool:
        return Json::boolean(value.asBool());
      case telemetry::MetricValue::Type::kString:
        return Json::string(value.asString());
    }
    return Json::number(std::uint64_t{0});
}

} // namespace

Json
Server::statsBody() const
{
    // A walk over the serve.* subtree with the prefix stripped: the JSON
    // keys are the registered metric names, and Json objects render in
    // sorted key order, so the body is byte-identical to the
    // pre-telemetry hand-marshalled one.
    Json body = makeResponse(Op::kStats);
    Json stats = Json::object();
    registry_.forEachInSubtree(
        "serve", [&](const std::string &name, telemetry::MetricKind,
                     const telemetry::MetricValue &value) {
            stats.set(name, jsonFromMetric(value));
        });
    body.set("stats", std::move(stats));
    return body;
}

Json
Server::cachePullBody(const CachePullRequest &req)
{
    Json body = makeResponse(Op::kCachePull);
    Json records = Json::object();
    std::uint64_t misses = 0;
    for (const auto &key : req.keys) {
        if (const auto hit = engine_.resultCache().lookup(key)) {
            Json values = Json::array();
            for (const double v : *hit)
                values.push(Json::number(v));
            records.set(key, std::move(values));
        } else {
            ++misses;
        }
    }
    body.set("records", std::move(records));
    body.set("misses", Json::number(misses));
    return body;
}

Json
Server::cachePushBody(const CachePushRequest &req)
{
    Json body = makeResponse(Op::kCachePush);
    std::uint64_t stored = 0;
    std::uint64_t rejected = 0;
    for (const auto &[key, values] : req.records) {
        if (key.empty() || values.empty()) {
            ++rejected;
            continue;
        }
        engine_.resultCache().store(key, values);
        ++stored;
    }
    body.set("stored", Json::number(stored));
    body.set("rejected", Json::number(rejected));
    return body;
}

Json
Server::metricsBody() const
{
    Json body = makeResponse(Op::kMetrics);
    Json metrics = Json::object();
    registry_.forEach([&](const std::string &path, telemetry::MetricKind,
                          const telemetry::MetricValue &value) {
        metrics.set(path, jsonFromMetric(value));
    });
    body.set("metrics", std::move(metrics));
    body.set("exposition", Json::string(registry_.exposition()));
    return body;
}

void
Server::sendBody(Connection &conn, const Json &body, std::uint64_t id)
{
    Json copy = body;
    copy.set("id", Json::number(id));
    sendRaw(conn, copy.dump(), id);
}

void
Server::sendRaw(Connection &conn, std::string payload, std::uint64_t id)
{
    if (payload.size() > options_.maxFrame) {
        // The frame cap applies to both directions (protocol.h): an
        // oversized body would poison the client's decoder, so substitute
        // a small error the client can actually parse and correlate.
        Json body = makeError(
            "response_too_large",
            "response of " + std::to_string(payload.size()) +
                " bytes exceeds the " + std::to_string(options_.maxFrame) +
                "-byte frame limit");
        body.set("id", Json::number(id));
        payload = body.dump();
    }
    conn.outBuffer += encodeFrame(payload);
    stats_.responsesSent.fetch_add(1);
    handleWritable(conn);
}

void
Server::handleWritable(Connection &conn)
{
    while (conn.outOffset < conn.outBuffer.size()) {
        std::size_t chunk = conn.outBuffer.size() - conn.outOffset;
        if (fault::shouldFire(fault::Site::kNetShortWrite))
            chunk = std::max<std::uint64_t>(
                1, fault::param(fault::Site::kNetShortWrite, 1));
        // MSG_NOSIGNAL: a client that vanished mid-response must come
        // back as EPIPE (the connection is dropped below), not raise
        // SIGPIPE and kill the server.
        const ssize_t n =
            ::send(conn.fd, conn.outBuffer.data() + conn.outOffset,
                   std::min(chunk,
                            conn.outBuffer.size() - conn.outOffset),
                   MSG_NOSIGNAL);
        if (n > 0) {
            conn.outOffset += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                updateEpoll(conn);
            }
            return;
        }
        if (errno == EINTR)
            continue;
        closeConnection(conn.id);
        return;
    }
    // Fully flushed.
    conn.outBuffer.clear();
    conn.outOffset = 0;
    if (conn.wantWrite) {
        conn.wantWrite = false;
        updateEpoll(conn);
    }
    if (conn.closeAfterFlush)
        closeConnection(conn.id);
}

void
Server::updateEpoll(Connection &conn)
{
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events =
        EPOLLIN | (conn.wantWrite ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
Server::closeConnection(std::uint64_t connection_id)
{
    const auto it = connections_.find(connection_id);
    if (it == connections_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    connections_.erase(it);
}

void
Server::drainCompletions()
{
    while (true) {
        Completion completion;
        {
            std::lock_guard<std::mutex> lock(completionsMutex_);
            if (completions_.empty())
                return;
            completion = std::move(completions_.front());
            completions_.pop_front();
        }
        const auto it = inFlight_.find(completion.key);
        if (it == inFlight_.end())
            continue;
        const Json body = Json::parse(completion.body);
        for (const Waiter &waiter : it->second) {
            const auto connIt = connections_.find(waiter.connectionId);
            if (connIt == connections_.end())
                continue; // client went away; result stays memoised
            Json copy = body;
            copy.set("id", Json::number(waiter.requestId));
            sendRaw(*connIt->second, copy.dump(), waiter.requestId);
        }
        inFlight_.erase(it);
    }
}

void
Server::postCompletion(Completion completion)
{
    {
        std::lock_guard<std::mutex> lock(completionsMutex_);
        completions_.push_back(std::move(completion));
    }
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

Server::Completion
Server::executeJob(const Job &job)
{
    Completion completion;
    completion.key = job.key;
    if (job.hasDeadline && std::chrono::steady_clock::now() > job.deadline) {
        stats_.deadlineExpired.fetch_add(1);
        completion.body =
            makeError("deadline", "deadline expired before execution")
                .dump();
        return completion;
    }
    try {
        const Op op = job.request.op;
        // Coordinator mode: the dist layer answers the simulation ops
        // (sharding them across backends) while this server keeps owning
        // the wire, admission and memoisation.
        const bool delegated = options_.simExecutor &&
            (op == Op::kRun || op == Op::kSweep || op == Op::kIsolated ||
             op == Op::kSchedule);
        const Json body = delegated ? options_.simExecutor(job.request)
                                    : answerLocally(engine_, job.request);
        stats_.executed.fetch_add(1);
        completion.body = body.dump();
        completion.cacheable = op != Op::kPing;
    } catch (const FatalError &e) {
        completion.body = makeError("failed", e.what()).dump();
    } catch (const std::exception &e) {
        completion.body = makeError("internal", e.what()).dump();
    }
    return completion;
}

void
Server::dispatcherLoop()
{
    std::vector<Job> batch;
    while (queue_->popBatch(batch, batchMax_) > 0) {
        executing_.store(batch.size());
        // One map index per request: independent simulations spread over
        // the exec pool, exactly like a figure sweep.
        auto completions = exec::mapItems(
            batch, [&](const Job &job) { return executeJob(job); });
        executing_.store(0);
        for (auto &completion : completions) {
            if (completion.cacheable)
                responses_.store(completion.key, completion.body);
            postCompletion(std::move(completion));
        }
    }
}

} // namespace serve
} // namespace smtflex
