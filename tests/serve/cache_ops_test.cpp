/**
 * @file
 * Federation op tests: cache_pull / cache_push / sweep_chunk parsing
 * (including malformed and hostile payloads), id echo, oversized-frame
 * rejection, and the pull/push round trip through a live server — a
 * pushed record must come back bit-exact, doubles included, and a pushed
 * record that does not fit its op must fail that op, not the server.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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
    study.cachePath = "";
    return study;
}

class TestServer
{
  public:
    explicit TestServer(ServerOptions options)
    {
        options.port = 0;
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
pullDoc(std::vector<std::string> keys)
{
    Json doc = Json::object();
    doc.set("op", Json::string("cache_pull"));
    Json list = Json::array();
    for (const auto &key : keys)
        list.push(Json::string(key));
    doc.set("keys", std::move(list));
    return doc;
}

Json
pushDoc(const std::string &key, std::vector<double> values)
{
    Json records = Json::object();
    Json list = Json::array();
    for (const double v : values)
        list.push(Json::number(v));
    records.set(key, std::move(list));
    Json doc = Json::object();
    doc.set("op", Json::string("cache_push"));
    doc.set("records", std::move(records));
    return doc;
}

// ---------------------------------------------------------------- parse

TEST(CacheOpsParseTest, CachePullRoundTripsKeys)
{
    const Request req =
        parseRequest(Json::parse(pullDoc({"iso;mcf;big", "k2"}).dump()));
    EXPECT_EQ(req.op, Op::kCachePull);
    ASSERT_EQ(req.cachePull.keys.size(), 2u);
    EXPECT_EQ(req.cachePull.keys[0], "iso;mcf;big");
    EXPECT_EQ(req.cachePull.keys[1], "k2");
    // Federation ops are never cached or coalesced.
    EXPECT_EQ(req.canonicalKey(), "");
}

TEST(CacheOpsParseTest, CachePushRoundTripsRecords)
{
    const Request req = parseRequest(
        Json::parse(pushDoc("some;key", {1.5, -2.25, 0.1}).dump()));
    EXPECT_EQ(req.op, Op::kCachePush);
    ASSERT_EQ(req.cachePush.records.size(), 1u);
    EXPECT_EQ(req.cachePush.records[0].first, "some;key");
    EXPECT_EQ(req.cachePush.records[0].second,
              (std::vector<double>{1.5, -2.25, 0.1}));
    EXPECT_EQ(req.canonicalKey(), "");
}

TEST(CacheOpsParseTest, SweepChunkParsesSweepFieldsAndRows)
{
    Json doc = Json::object();
    doc.set("op", Json::string("sweep_chunk"));
    doc.set("design", Json::string("2B4m"));
    doc.set("no_smt", Json::boolean(true));
    Json rows = Json::array();
    rows.push(Json::number(std::uint64_t{1}));
    rows.push(Json::number(std::uint64_t{4}));
    doc.set("rows", std::move(rows));

    const Request req = parseRequest(Json::parse(doc.dump()));
    EXPECT_EQ(req.op, Op::kSweepChunk);
    EXPECT_EQ(req.chunk.sweep.design, "2B4m");
    EXPECT_TRUE(req.chunk.sweep.noSmt);
    EXPECT_EQ(req.chunk.rows, (std::vector<std::uint32_t>{1, 4}));
    // Unlike pull/push, a chunk is a deterministic simulation — it IS
    // cacheable and coalesceable, so it has a canonical key.
    EXPECT_NE(req.canonicalKey(), "");
    const Request again =
        parseRequest(Json::parse(req.canonicalKey()));
    EXPECT_EQ(again.canonicalKey(), req.canonicalKey());
}

TEST(CacheOpsParseTest, MalformedFederationPayloadsAreFatal)
{
    // cache_pull: keys missing, empty, or not strings.
    EXPECT_THROW(
        parseRequest(Json::parse("{\"op\":\"cache_pull\"}")),
        FatalError);
    EXPECT_THROW(
        parseRequest(Json::parse("{\"op\":\"cache_pull\",\"keys\":[]}")),
        FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"cache_pull\",\"keys\":[7]}")),
                 FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"cache_pull\",\"keys\":\"k\"}")),
                 FatalError);

    // cache_push: records missing, not an object, or garbage values.
    EXPECT_THROW(
        parseRequest(Json::parse("{\"op\":\"cache_push\"}")),
        FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"cache_push\",\"records\":[1,2]}")),
                 FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"cache_push\",\"records\":{\"k\":"
                     "[\"NaN\"]}}")),
                 FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"cache_push\",\"records\":{\"k\":3}}")),
                 FatalError);

    // sweep_chunk: rows missing, empty, zero, or non-numeric.
    EXPECT_THROW(
        parseRequest(Json::parse("{\"op\":\"sweep_chunk\"}")),
        FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"sweep_chunk\",\"rows\":[]}")),
                 FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"sweep_chunk\",\"rows\":[0]}")),
                 FatalError);
    EXPECT_THROW(parseRequest(Json::parse(
                     "{\"op\":\"sweep_chunk\",\"rows\":[\"x\"]}")),
                 FatalError);
}

// --------------------------------------------------------------- server

TEST(CacheOpsServerTest, PushThenPullRoundTripsBitExactDoubles)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);
    Client client;
    client.connect("127.0.0.1", ts.port());

    // Values chosen to need all 17 significant digits.
    const std::vector<double> values{1.0 / 3.0, 6.02214076e23,
                                     -0.1234567890123456789, 4096.0};
    Json push = pushDoc("dist;roundtrip;key", values);
    push.set("id", Json::number(std::uint64_t{7}));
    const Json pushed = client.call(push);
    ASSERT_TRUE(pushed.at("ok").asBool());
    EXPECT_EQ(pushed.at("id").asU64(), 7u); // id echo on inline ops
    EXPECT_EQ(pushed.at("stored").asU64(), 1u);
    EXPECT_EQ(pushed.at("rejected").asU64(), 0u);

    Json pull = pullDoc({"dist;roundtrip;key", "absent;key"});
    pull.set("id", Json::number(std::uint64_t{8}));
    const Json reply = client.call(pull);
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("id").asU64(), 8u);
    EXPECT_EQ(reply.at("misses").asU64(), 1u);
    const Json &records = reply.at("records");
    EXPECT_FALSE(records.has("absent;key"));
    ASSERT_TRUE(records.has("dist;roundtrip;key"));
    const auto &got = records.at("dist;roundtrip;key").elements();
    ASSERT_EQ(got.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(got[i].asNumber(), values[i]) << "value " << i;
}

TEST(CacheOpsServerTest, StructurallyEmptyRecordsAreRejectedNotFatal)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);
    Client client;
    client.connect("127.0.0.1", ts.port());

    // An empty key is storable garbage; the server counts it rejected
    // and keeps serving this connection.
    Json records = Json::object();
    Json list = Json::array();
    list.push(Json::number(1.0));
    records.set("", std::move(list));
    Json good = Json::array();
    good.push(Json::number(2.0));
    records.set("fine", std::move(good));
    Json doc = Json::object();
    doc.set("op", Json::string("cache_push"));
    doc.set("records", std::move(records));

    const Json reply = client.call(doc);
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("stored").asU64(), 1u);
    EXPECT_EQ(reply.at("rejected").asU64(), 1u);

    // Connection still healthy.
    const Json pulled = client.call(pullDoc({"fine"}));
    ASSERT_TRUE(pulled.at("ok").asBool());
    EXPECT_EQ(pulled.at("misses").asU64(), 0u);
}

TEST(CacheOpsServerTest, MalformedFederationRequestsGetBadRequestReply)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);
    Client client;
    client.connect("127.0.0.1", ts.port());

    const Json pull = client.call(
        Json::parse("{\"op\":\"cache_pull\",\"id\":3,\"keys\":[]}"));
    ASSERT_FALSE(pull.at("ok").asBool());
    EXPECT_EQ(pull.at("error").asString(), "bad_request");
    EXPECT_EQ(pull.at("id").asU64(), 3u); // id echoes even on errors

    const Json push = client.call(Json::parse(
        "{\"op\":\"cache_push\",\"id\":4,\"records\":{\"k\":[true]}}"));
    ASSERT_FALSE(push.at("ok").asBool());
    EXPECT_EQ(push.at("error").asString(), "bad_request");
    EXPECT_EQ(push.at("id").asU64(), 4u);

    const Json chunk = client.call(Json::parse(
        "{\"op\":\"sweep_chunk\",\"id\":5,\"design\":\"no-such\","
        "\"rows\":[1]}"));
    ASSERT_FALSE(chunk.at("ok").asBool());
    EXPECT_EQ(chunk.at("error").asString(), "bad_request");
    EXPECT_EQ(chunk.at("id").asU64(), 5u);
}

TEST(CacheOpsServerTest, PushedPlacementThatDoesNotFitFailsItsSchedule)
{
    ServerOptions options;
    options.study = fastStudy();
    TestServer ts(options);
    Client client;
    client.connect("127.0.0.1", ts.port());

    // A cached online decision for mcf+hmmer that places zero threads:
    // the schedule must fail naming the key, not index past the mix.
    const StudyOptions &study = options.study;
    std::ostringstream key;
    key << "ol;pairing;4B;smt1;bw" << study.bandwidthGBps << ";b"
        << study.budget << ";w" << study.warmup << ";s" << study.seed
        << ";mix:mcf+hmmer";
    const Json pushed =
        client.call(pushDoc(key.str(), {1, 1, 0, 0, 0, 0, 0, 0}));
    ASSERT_TRUE(pushed.at("ok").asBool());
    EXPECT_EQ(pushed.at("stored").asU64(), 1u);

    const Json reply = client.call(Json::parse(
        "{\"op\":\"schedule\",\"design\":\"4B\","
        "\"benchmarks\":[\"mcf\",\"hmmer\"],\"policy\":\"pairing\"}"));
    ASSERT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), "failed");
    EXPECT_NE(reply.at("message").asString().find(key.str()),
              std::string::npos)
        << reply.at("message").asString();

    // The server keeps answering.
    const Json pong = client.call(Json::parse("{\"op\":\"ping\"}"));
    EXPECT_TRUE(pong.at("ok").asBool());
}

TEST(CacheOpsServerTest, OversizedPushFrameIsRefusedWithoutKillingServer)
{
    ServerOptions options;
    options.study = fastStudy();
    options.maxFrame = 4'096;
    TestServer ts(options);
    Client client;
    client.connect("127.0.0.1", ts.port());

    // One giant record: the frame exceeds maxFrame, the server answers
    // frame_too_large and drops the connection (the length prefix is
    // hostile input — it cannot stream-skip safely).
    Json doc = pushDoc("big", std::vector<double>(4'096, 1.0));
    const std::string frame = encodeFrame(doc.dump());
    ASSERT_GT(frame.size(), 4'096u);
    client.sendBytes(frame.data(), frame.size());
    const Json reply = client.receive();
    ASSERT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").asString(), "frame_too_large");

    // The server survives for a fresh connection.
    Client again;
    again.connect("127.0.0.1", ts.port());
    const Json pong =
        again.call(Json::parse("{\"op\":\"ping\",\"id\":1}"));
    EXPECT_TRUE(pong.at("ok").asBool());
}

} // namespace
} // namespace serve
} // namespace smtflex
