/**
 * @file
 * In-process tests of the serve event loop: inline fast paths, response
 * memoisation, request coalescing, queue-full backpressure, deadline
 * expiry, and graceful drain (requestStop and SIGTERM). Every case runs
 * a real server on an ephemeral loopback port.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/log.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace smtflex {
namespace serve {
namespace {

StudyOptions
fastStudy()
{
    StudyOptions study;
    study.budget = 1'500;
    study.warmup = 300;
    study.seed = 42;
    study.cachePath = ""; // no disk persistence in unit tests
    return study;
}

/** A server running on its own thread until stop()/destruction. */
class TestServer
{
  public:
    explicit TestServer(ServerOptions options)
    {
        options.port = 0; // ephemeral
        server_ = std::make_unique<Server>(std::move(options));
        server_->bind();
        thread_ = std::thread([this] { server_->run(); });
    }

    ~TestServer() { stop(); }

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

Json
pingDoc(std::uint64_t id, std::uint64_t delay_ms = 0,
        std::uint64_t deadline_ms = 0)
{
    Json doc = Json::object();
    doc.set("op", Json::string("ping"));
    doc.set("id", Json::number(id));
    if (delay_ms)
        doc.set("delay_ms", Json::number(delay_ms));
    if (deadline_ms)
        doc.set("deadline_ms", Json::number(deadline_ms));
    return doc;
}

Json
runDoc(std::uint64_t id)
{
    Json doc = Json::object();
    doc.set("op", Json::string("run"));
    doc.set("id", Json::number(id));
    Json workload = Json::array();
    workload.push(Json::string("mcf"));
    workload.push(Json::string("hmmer"));
    doc.set("workload", std::move(workload));
    doc.set("budget", Json::number(std::uint64_t{1'500}));
    doc.set("warmup", Json::number(std::uint64_t{300}));
    return doc;
}

/** Receive @p count replies and index them by echoed id. */
std::map<std::uint64_t, Json>
receiveAll(Client &client, std::size_t count)
{
    std::map<std::uint64_t, Json> replies;
    for (std::size_t i = 0; i < count; ++i) {
        Json reply = client.receive();
        replies.emplace(reply.at("id").asU64(), std::move(reply));
    }
    return replies;
}

TEST(ServerTest, InlinePingAndStats)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    const Json pong = client.call(pingDoc(5));
    EXPECT_TRUE(pong.at("ok").asBool());
    EXPECT_TRUE(pong.at("pong").asBool());
    EXPECT_EQ(pong.at("id").asU64(), 5u);

    Json statsReq = Json::object();
    statsReq.set("op", Json::string("stats"));
    const Json stats = client.call(statsReq);
    EXPECT_TRUE(stats.at("ok").asBool());
    EXPECT_GE(stats.at("stats").at("requests").asU64(), 2u);
    EXPECT_EQ(stats.at("stats").at("connections").asU64(), 1u);
    EXPECT_FALSE(stats.at("stats").at("draining").asBool());
}

TEST(ServerTest, MetricsOpExposesTheRegistry)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    Json metricsReq = Json::object();
    metricsReq.set("op", Json::string("metrics"));
    metricsReq.set("id", Json::number(std::uint64_t{9}));
    const Json reply = client.call(metricsReq);
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("op").asString(), "metrics");
    EXPECT_EQ(reply.at("id").asU64(), 9u);

    // Full dotted paths, including the connection that sent the request.
    const Json &metrics = reply.at("metrics");
    EXPECT_GE(metrics.at("serve.requests").asU64(), 1u);
    EXPECT_EQ(metrics.at("serve.connections").asU64(), 1u);
    EXPECT_TRUE(metrics.has("serve.queue_depth"));
    EXPECT_TRUE(metrics.has("serve.jobs"));

    // The stats body is the serve.* subtree with bare keys: same values
    // as the registry's, and the counters can only have grown between
    // the two inline reads.
    Json statsReq = Json::object();
    statsReq.set("op", Json::string("stats"));
    const Json stats = client.call(statsReq);
    ASSERT_TRUE(stats.at("ok").asBool());
    for (const auto &[key, value] : stats.at("stats").members()) {
        ASSERT_TRUE(metrics.has("serve." + key)) << key;
        if (key == "requests" || key == "responses") {
            EXPECT_GE(value.asU64(), metrics.at("serve." + key).asU64())
                << key;
        }
    }

    // Prometheus exposition rides along for scrapers.
    const std::string &exposition = reply.at("exposition").asString();
    EXPECT_NE(exposition.find("# TYPE smtflex_serve_requests counter"),
              std::string::npos);
    EXPECT_NE(exposition.find("smtflex_serve_draining 0"),
              std::string::npos);
}

TEST(ServerTest, MalformedJsonGetsBadRequestReply)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);

    // Raw socket: the Client only sends well-formed documents.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ts.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string frame = encodeFrame("{this is not json");
    ASSERT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));

    FrameDecoder decoder;
    std::string payload;
    char buf[4096];
    while (!decoder.next(payload)) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        ASSERT_GT(n, 0);
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const Json reply = Json::parse(payload);
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), "bad_request");
    EXPECT_EQ(ts.server().stats().badRequests.load(), 1u);
}

TEST(ServerTest, UnknownOpAndBadFieldsAreBadRequests)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    Json unknown = Json::object();
    unknown.set("op", Json::string("fly"));
    unknown.set("id", Json::number(std::uint64_t{3}));
    const Json reply = client.call(unknown);
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), "bad_request");
    EXPECT_EQ(reply.at("id").asU64(), 3u); // id still correlated

    Json badBench = runDoc(4);
    Json workload = Json::array();
    workload.push(Json::string("nosuchbench"));
    badBench.set("workload", std::move(workload));
    const Json reply2 = client.call(badBench);
    EXPECT_FALSE(reply2.at("ok").asBool());
    EXPECT_EQ(reply2.at("error").asString(), "bad_request");

    // A bandwidth that is not a finite positive number never reaches a
    // run; the reply names the field.
    const std::pair<const char *, const char *> bad_bandwidths[] = {
        {"\"nan\"", "request field 'bw'"},
        {"1e-300", "dram.busBandwidthGBps"}};
    for (const auto &[bw, field] : bad_bandwidths) {
        const std::string request =
            std::string("{\"op\":\"run\",\"workload\":[\"mcf\"],"
                        "\"bw\":") +
            bw + "}";
        const Json reply3 = client.call(Json::parse(request));
        EXPECT_FALSE(reply3.at("ok").asBool()) << request;
        EXPECT_EQ(reply3.at("error").asString(), "bad_request") << request;
        EXPECT_NE(reply3.at("message").asString().find(field),
                  std::string::npos)
            << reply3.at("message").asString();
    }

    // The connection stays healthy after rejected requests.
    EXPECT_TRUE(client.call(pingDoc(9)).at("ok").asBool());
}

TEST(ServerTest, SweepOrScheduleAtAnotherBandwidthFails)
{
    ServerOptions options;
    options.study = fastStudy(); // 8 GB/s, the records' bandwidth
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    // Answering with the 8 GB/s numbers would mislabel them: both ops
    // fail before computing a row, naming both bandwidths.
    for (const char *request :
         {"{\"op\":\"sweep\",\"design\":\"4B\",\"bw\":16}",
          "{\"op\":\"schedule\",\"design\":\"4B\","
          "\"benchmarks\":[\"mcf\"],\"bw\":16}"}) {
        const Json reply = client.call(Json::parse(request));
        EXPECT_FALSE(reply.at("ok").asBool()) << request;
        EXPECT_EQ(reply.at("error").asString(), "failed") << request;
        const std::string message = reply.at("message").asString();
        EXPECT_NE(message.find("bw 16"), std::string::npos) << message;
        EXPECT_NE(message.find("bandwidth of 8"), std::string::npos)
            << message;
    }
    EXPECT_EQ(ts.server().engine().resultCache().size(), 0u);
}

TEST(ServerTest, UnrepresentableIdSurvivesAsBadRequest)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    // Invalid op AND an id asU64() would fatal() on: the reply must be a
    // bad_request correlated to id 0, and the server must stay up.
    Json doc = Json::object();
    doc.set("op", Json::string("fly"));
    doc.set("id", Json::number(-1.0));
    const Json reply = client.call(doc);
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), "bad_request");
    EXPECT_EQ(reply.at("id").asU64(), 0u);

    Json fractional = Json::object();
    fractional.set("op", Json::string("fly"));
    fractional.set("id", Json::number(1.5));
    EXPECT_EQ(client.call(fractional).at("error").asString(),
              "bad_request");

    // Server and connection both survived the poison ids.
    EXPECT_TRUE(client.call(pingDoc(9)).at("ok").asBool());
    EXPECT_EQ(ts.server().stats().badRequests.load(), 2u);
}

TEST(ServerTest, OversizedResponseIsReplacedNotSent)
{
    ServerOptions options;
    options.study = fastStudy();
    options.maxFrame = 256; // the stats body will not fit
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    Json statsReq = Json::object();
    statsReq.set("op", Json::string("stats"));
    statsReq.set("id", Json::number(std::uint64_t{11}));
    const Json reply = client.call(statsReq);
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), "response_too_large");
    EXPECT_EQ(reply.at("id").asU64(), 11u); // still correlated

    // Small responses still flow on the same connection.
    EXPECT_TRUE(client.call(pingDoc(12)).at("ok").asBool());
}

TEST(ServerTest, RepeatedRunIsServedFromTheResponseCache)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    const Json first = client.call(runDoc(1));
    ASSERT_TRUE(first.at("ok").asBool());
    const std::string output = first.at("output").asString();
    EXPECT_NE(output.find("STP"), std::string::npos);

    const Json second = client.call(runDoc(2));
    ASSERT_TRUE(second.at("ok").asBool());
    EXPECT_EQ(second.at("output").asString(), output);
    EXPECT_EQ(ts.server().stats().cacheHits.load(), 1u);
    EXPECT_EQ(ts.server().stats().executed.load(), 1u);
}

TEST(ServerTest, IdenticalInFlightRequestsCoalesce)
{
    ServerOptions options;
    options.study = fastStudy();
    options.queueCapacity = 8;
    options.batchMax = 1; // serialise the dispatcher
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    // The delayed ping occupies the dispatcher, so both runs are admitted
    // while the first is still in flight — the second must coalesce.
    client.send(pingDoc(1, /*delay_ms=*/150));
    client.send(runDoc(2));
    client.send(runDoc(3));

    const auto replies = receiveAll(client, 3);
    ASSERT_EQ(replies.size(), 3u);
    EXPECT_TRUE(replies.at(1).at("ok").asBool());
    ASSERT_TRUE(replies.at(2).at("ok").asBool());
    ASSERT_TRUE(replies.at(3).at("ok").asBool());
    EXPECT_EQ(replies.at(2).at("output").asString(),
              replies.at(3).at("output").asString());
    EXPECT_EQ(ts.server().stats().coalesced.load(), 1u);
    // One simulation, not two (the ping also counts as executed).
    EXPECT_EQ(ts.server().stats().executed.load(), 2u);
}

TEST(ServerTest, QueueFullRequestsGetOverloadedNotDropped)
{
    ServerOptions options;
    options.study = fastStudy();
    options.queueCapacity = 1; // tiny admission queue
    options.batchMax = 1;
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    // Delayed pings are queued (never inline, never coalesced): six of
    // them against a 1-deep queue must trip the overload path.
    constexpr std::uint64_t kCount = 6;
    for (std::uint64_t i = 0; i < kCount; ++i)
        client.send(pingDoc(i, /*delay_ms=*/200));

    std::uint64_t ok = 0, overloaded = 0;
    const auto replies = receiveAll(client, kCount);
    ASSERT_EQ(replies.size(), kCount); // every request got an answer
    for (const auto &[id, reply] : replies) {
        if (reply.at("ok").asBool())
            ++ok;
        else if (reply.at("error").asString() == "overloaded")
            ++overloaded;
    }
    EXPECT_EQ(ok + overloaded, kCount);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(overloaded, 3u);
    EXPECT_EQ(ts.server().stats().overloaded.load(), overloaded);
}

TEST(ServerTest, DeadlineExpiresWhileQueued)
{
    ServerOptions options;
    options.study = fastStudy();
    options.queueCapacity = 8;
    options.batchMax = 1;
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    // The first ping holds the dispatcher for 200 ms; the second has a
    // 50 ms deadline and expires while queued behind it.
    client.send(pingDoc(1, /*delay_ms=*/200));
    client.send(pingDoc(2, /*delay_ms=*/10, /*deadline_ms=*/50));

    const auto replies = receiveAll(client, 2);
    EXPECT_TRUE(replies.at(1).at("ok").asBool());
    const Json &expired = replies.at(2);
    EXPECT_FALSE(expired.at("ok").asBool());
    EXPECT_EQ(expired.at("error").asString(), "deadline");
    EXPECT_EQ(ts.server().stats().deadlineExpired.load(), 1u);
}

TEST(ServerTest, RequestStopDrainsInFlightWork)
{
    ServerOptions options;
    options.study = fastStudy();
    options.queueCapacity = 8;
    TestServer ts(options);

    Client client;
    client.connect("127.0.0.1", ts.port());

    constexpr std::uint64_t kCount = 3;
    for (std::uint64_t i = 0; i < kCount; ++i)
        client.send(pingDoc(i, /*delay_ms=*/100));
    // Let the server admit the pings, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ts.server().requestStop();

    // Every admitted request is still answered before run() returns.
    const auto replies = receiveAll(client, kCount);
    ASSERT_EQ(replies.size(), kCount);
    for (const auto &[id, reply] : replies)
        EXPECT_TRUE(reply.at("ok").asBool()) << "id " << id;

    ts.stop(); // joins run(); hangs here = drain failure
}

TEST(ServerTest, SigtermTriggersGracefulDrain)
{
    ServerOptions options;
    options.study = fastStudy();
    auto ts = std::make_unique<TestServer>(options);
    Server::installSignalHandlers(&ts->server());

    Client client;
    client.connect("127.0.0.1", ts->port());
    client.send(pingDoc(1, /*delay_ms=*/100));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    ASSERT_EQ(::raise(SIGTERM), 0);
    const Json reply = client.receive();
    EXPECT_TRUE(reply.at("ok").asBool());

    ts->stop();
    ts.reset(); // destructor detaches the signal handlers
}

} // namespace
} // namespace serve
} // namespace smtflex
