/**
 * @file
 * Chaos tests of the serve layer: a client that retries through injected
 * network faults must observe byte-identical responses, a server must
 * survive every loadgen --chaos mode and keep answering well-formed
 * requests, per-op timeouts must fire, and the stats op must surface the
 * result cache's corruption counter.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/log.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "study/study_engine.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace serve {
namespace {

StudyOptions
chaosStudy()
{
    StudyOptions study;
    study.budget = 2'000;
    study.warmup = 500;
    study.seed = 42;
    study.cachePath = "";
    return study;
}

class E2eServer
{
  public:
    explicit E2eServer(ServerOptions options)
    {
        options.port = 0;
        server_ = std::make_unique<Server>(std::move(options));
        server_->bind();
        thread_ = std::thread([this] { server_->run(); });
    }

    ~E2eServer() { stop(); }

    void stop()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
    }

    Server &server() { return *server_; }
    std::uint16_t port() const { return server_->port(); }

  private:
    std::unique_ptr<Server> server_;
    std::thread thread_;
};

class ServeChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

Json
pingRequest(std::uint64_t id)
{
    Json doc = Json::object();
    doc.set("op", Json::string("ping"));
    doc.set("id", Json::number(id));
    return doc;
}

TEST_F(ServeChaosTest, RetryingClientSeesByteIdenticalResponses)
{
    ServerOptions options;
    options.study = chaosStudy();
    options.queueCapacity = 64;
    E2eServer ts(options);

    constexpr unsigned kRequests = 24;

    // Fault-free reference responses.
    std::vector<std::string> expected;
    {
        Client clean;
        clean.connect("127.0.0.1", ts.port());
        for (unsigned i = 0; i < kRequests; ++i)
            expected.push_back(clean.call(pingRequest(i)).dump());
    }

    // Short reads/writes, EAGAIN storms (both sides of the loopback) and
    // a few mid-frame disconnects (client side). Requests are idempotent,
    // so the retrying client must end up with the exact same bytes.
    fault::configure("net.short_read:p=0.3;seed=2,"
                     "net.short_write:p=0.3;seed=3,"
                     "net.eagain:p=0.2;seed=4,"
                     "net.disconnect:p=0.25;seed=5;limit=4");
    Client chaotic;
    RetryPolicy retry;
    retry.maxRetries = 10;
    retry.backoffBaseMs = 1;
    retry.backoffCapMs = 8;
    chaotic.setRetryPolicy(retry);
    chaotic.connect("127.0.0.1", ts.port());
    for (unsigned i = 0; i < kRequests; ++i)
        EXPECT_EQ(chaotic.call(pingRequest(i)).dump(), expected[i])
            << "request " << i;
    const std::uint64_t disconnects =
        fault::fires(fault::Site::kNetDisconnect);
    fault::reset();

    // The chaos was real: frames were clamped and connections torn.
    EXPECT_GE(disconnects, 1u);
    EXPECT_GE(chaotic.reconnects(), disconnects);
    ts.stop();
}

TEST_F(ServeChaosTest, PerOpTimeoutFailsInsteadOfHangingForever)
{
    // A listener that accepts but never answers: receive() must give up
    // after the op timeout, not block the test forever.
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);

    Client client;
    RetryPolicy retry;
    retry.opTimeoutMs = 50;
    client.setRetryPolicy(retry);
    client.connect("127.0.0.1", ntohs(addr.sin_port));
    client.send(pingRequest(1));
    EXPECT_THROW(client.receive(), FatalError);
    EXPECT_FALSE(client.connected()); // the stream position is unusable
    ::close(listener);
}

TEST_F(ServeChaosTest, ConnectTimeoutBoundsTheHandshake)
{
    // A listener whose accept queue is full: further handshakes get no
    // SYN-ACK and a blocking connect() would hang. With a connect
    // timeout the client must give up quickly instead — this is what
    // lets a dist coordinator probe a black-holed backend without
    // stalling the fleet.
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 0), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const std::uint16_t port = ntohs(addr.sin_port);

    // Fill the accept queue (never accept()ed) so the victim's SYN is
    // dropped. Backlog semantics vary, so over-fill generously with
    // fire-and-forget non-blocking connects.
    std::vector<int> fillers;
    for (int i = 0; i < 8; ++i) {
        const int fd =
            ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                     0);
        ASSERT_GE(fd, 0);
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
        fillers.push_back(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    Client client;
    RetryPolicy retry;
    retry.connectTimeoutMs = 100;
    client.setRetryPolicy(retry);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(client.connect("127.0.0.1", port), FatalError);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
    // Either the timeout fired (~100 ms) or the kernel refused outright;
    // both are bounded. A blocking-connect hang (seconds of SYN
    // retransmits) is the failure mode this guards against.
    EXPECT_LT(elapsed.count(), 2'000);
    EXPECT_FALSE(client.connected());

    for (const int fd : fillers)
        ::close(fd);
    ::close(listener);
}

TEST_F(ServeChaosTest, StatsReportCorruptCacheLines)
{
    // A cache with one mangled line: the load skips and counts it, and
    // the stats op surfaces the counter to operators.
    const std::string cachePath =
        testTempPath("smtflex_serve_chaos_cache") + ".txt";
    {
        std::ofstream out(cachePath, std::ios::trunc);
        out << "good|1 2 3\n";
        out << "garbage line without a separator\n";
    }
    ServerOptions options;
    options.study = chaosStudy();
    options.study.cachePath = cachePath;
    E2eServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());
    Json req = Json::object();
    req.set("op", Json::string("stats"));
    const Json reply = client.call(req);
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("stats").at("result_cache_corrupt_lines").asU64(),
              1u);
    ts.stop();
    std::remove(cachePath.c_str());
    for (std::size_t i = 0; i < 16; ++i) {
        std::ostringstream os;
        os << cachePath << ".shard-" << (i < 10 ? "0" : "") << i;
        std::remove(os.str().c_str());
    }
}

/** One loadgen run in the given chaos mode; the server must stay up and
 * every well-formed request must eventually succeed. */
void
runChaosMode(const std::string &mode)
{
    ServerOptions options;
    options.study = chaosStudy();
    options.queueCapacity = 64;
    E2eServer ts(options);

    LoadGenOptions load;
    load.port = ts.port();
    load.connections = 4;
    load.requestsPerConnection = 6;
    load.seed = 17;
    load.mix = "ping=3,run=1";
    load.distinct = 2;
    load.budget = 2'000;
    load.warmup = 500;
    load.chaos = mode;
    load.chaosEvery = 2;
    load.retry.maxRetries = 6;
    load.retry.backoffBaseMs = 1;
    load.retry.backoffCapMs = 16;

    const LoadGenReport report = runLoadGen(load);
    EXPECT_EQ(report.sent,
              std::uint64_t{load.connections} * load.requestsPerConnection)
        << report.summary();
    EXPECT_EQ(report.ok, report.sent) << report.summary();
    EXPECT_EQ(report.otherErrors, 0u) << report.summary();
    EXPECT_GT(report.chaosEvents, 0u) << report.summary();

    // The server shrugged it off: a fresh, well-behaved client still gets
    // a proper answer.
    Client after;
    after.connect("127.0.0.1", ts.port());
    const Json pong = after.call(pingRequest(999));
    EXPECT_TRUE(pong.at("ok").asBool());
    ts.stop();
}

TEST_F(ServeChaosTest, ServerSurvivesDisconnectingClients)
{
    runChaosMode("disconnect");
}

TEST_F(ServeChaosTest, ServerSurvivesPartialFrameClients)
{
    runChaosMode("partial-frame");
}

TEST_F(ServeChaosTest, ServerSurvivesGarbageSpewingClients)
{
    runChaosMode("garbage");
}

} // namespace
} // namespace serve
} // namespace smtflex
