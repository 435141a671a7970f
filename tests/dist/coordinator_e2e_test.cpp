/**
 * @file
 * Coordinator end-to-end tests: a dist::Coordinator in front of real
 * in-process `serve` backends. The invariant under test throughout: the
 * coordinated response is byte-identical to the single-node rendering,
 * whatever the fleet size — including a backend dying mid-sweep, a
 * backend that never existed, and an empty fleet.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "serve/client.h"
#include "serve/commands.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "study/study_engine.h"

namespace smtflex {
namespace dist {
namespace {

using serve::Json;

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

/** One in-process `serve` backend on an ephemeral port. */
class TestBackend
{
  public:
    TestBackend()
    {
        serve::ServerOptions options;
        options.port = 0;
        options.study = fastStudy();
        server_ = std::make_unique<serve::Server>(std::move(options));
        server_->bind();
        thread_ = std::thread([this] { server_->run(); });
    }

    ~TestBackend() { stop(); }

    void stop()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
    }

    serve::Server &server() { return *server_; }
    BackendConfig config() const { return {"127.0.0.1", server_->port()}; }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

CoordinatorOptions
coordOptions(const std::vector<BackendConfig> &backends)
{
    CoordinatorOptions options;
    options.server.port = 0;
    options.server.study = fastStudy();
    options.backends = backends;
    // Unit-test time scales: probes and connects fail fast, steals
    // trigger quickly.
    options.pool.probeTimeoutMs = 500;
    options.pool.connectTimeoutMs = 500;
    options.stealAfterMs = 2'000;
    return options;
}

serve::Request
sweepRequest(const std::string &bench)
{
    Json doc = Json::object();
    doc.set("op", Json::string("sweep"));
    doc.set("bench", Json::string(bench));
    return serve::parseRequest(doc);
}

TEST(CoordinatorE2eTest, SweepIsByteIdenticalForOneTwoAndThreeBackends)
{
    // The single-node reference, rendered by the exact code path the CLI
    // and a plain `serve` use.
    StudyEngine reference(fastStudy());
    const std::string expected =
        serve::sweepText(reference, sweepRequest("mcf").sweep);

    for (std::size_t fleet = 1; fleet <= 3; ++fleet) {
        std::vector<std::unique_ptr<TestBackend>> backends;
        std::vector<BackendConfig> configs;
        for (std::size_t i = 0; i < fleet; ++i) {
            backends.push_back(std::make_unique<TestBackend>());
            configs.push_back(backends.back()->config());
        }

        CoordinatorOptions options = coordOptions(configs);
        options.chunkRows = 3; // several chunks even for a small grid
        Coordinator coordinator(options);
        const Json body = coordinator.execute(sweepRequest("mcf"));

        EXPECT_TRUE(body.at("ok").asBool()) << fleet << " backends";
        EXPECT_EQ(body.at("output").asString(), expected)
            << fleet << " backends";
        const DistStats &stats = coordinator.stats();
        EXPECT_GT(stats.chunksDispatched.load(), 0u)
            << fleet << " backends";
        // Every record arrived through federation; the local render was
        // pure cache lookups.
        EXPECT_EQ(stats.recordsMissingAtRender.load(), 0u)
            << fleet << " backends";
        EXPECT_EQ(stats.rowsLocal.load(), 0u) << fleet << " backends";
    }
}

TEST(CoordinatorE2eTest, WarmBackendServesTheSweepWithoutDispatch)
{
    TestBackend backend;

    // Warm the backend's cache by running the sweep there directly.
    serve::Client direct;
    direct.connect("127.0.0.1", backend.config().port);
    Json sweep = Json::object();
    sweep.set("op", Json::string("sweep"));
    sweep.set("bench", Json::string("hmmer"));
    const Json warm = direct.call(sweep);
    ASSERT_TRUE(warm.at("ok").asBool());

    CoordinatorOptions options = coordOptions({backend.config()});
    Coordinator coordinator(options);
    const Json body = coordinator.execute(sweepRequest("hmmer"));

    EXPECT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), warm.at("output").asString());
    const DistStats &stats = coordinator.stats();
    // cache_pull federation satisfied every key — nothing was simulated
    // anywhere, on either side.
    EXPECT_EQ(stats.chunksDispatched.load(), 0u);
    EXPECT_GT(stats.recordsPulled.load(), 0u);
    EXPECT_EQ(stats.recordsMissingAtRender.load(), 0u);
}

TEST(CoordinatorE2eTest, BackendKilledMidSweepFailsOverByteIdentically)
{
    TestBackend survivor;
    auto victim = std::make_unique<TestBackend>();
    const auto victimStats = [&] {
        return victim->server().stats().requestsReceived.load();
    };

    CoordinatorOptions options =
        coordOptions({survivor.config(), victim->config()});
    options.chunkRows = 1;      // many chunks: the kill lands mid-sweep
    options.maxDispatch = 10;   // post-kill failures must not exhaust a
                                // chunk's dispatch budget
    options.stealAfterMs = 200; // reclaim the victim's chunks fast
    Coordinator coordinator(options);

    std::thread runner;
    Json body;
    runner = std::thread([&] {
        body = coordinator.execute(sweepRequest("mcf"));
    });
    // Let the victim take real work (2 probe requests, then chunks),
    // then kill it while the sweep is in flight.
    while (victimStats() < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    victim->stop();
    runner.join();

    StudyEngine reference(fastStudy());
    const std::string expected =
        serve::sweepText(reference, sweepRequest("mcf").sweep);
    EXPECT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), expected);
    const DistStats &stats = coordinator.stats();
    // The survivor (plus, before the kill, the victim) delivered every
    // record; nothing fell back to local simulation.
    EXPECT_EQ(stats.recordsMissingAtRender.load(), 0u);
    EXPECT_EQ(stats.rowsLocal.load(), 0u);
}

TEST(CoordinatorE2eTest, UnreachableBackendIsProbedOutNotFatal)
{
    TestBackend backend;
    // A port with no listener: the probe fails fast (bounded connect),
    // the sweep proceeds on the live backend alone.
    CoordinatorOptions options =
        coordOptions({{"127.0.0.1", 1}, backend.config()});
    Coordinator coordinator(options);
    const Json body = coordinator.execute(sweepRequest("sjeng"));

    StudyEngine reference(fastStudy());
    EXPECT_EQ(body.at("output").asString(),
              serve::sweepText(reference, sweepRequest("sjeng").sweep));
    EXPECT_EQ(coordinator.stats().recordsMissingAtRender.load(), 0u);
    EXPECT_GE(coordinator.pool().at(0).failures(), 1u);
}

TEST(CoordinatorE2eTest, EmptyFleetComputesLocallyByteIdentically)
{
    CoordinatorOptions options = coordOptions({});
    Coordinator coordinator(options);
    const Json body = coordinator.execute(sweepRequest("libquantum"));

    StudyEngine reference(fastStudy());
    EXPECT_EQ(
        body.at("output").asString(),
        serve::sweepText(reference, sweepRequest("libquantum").sweep));
    EXPECT_EQ(coordinator.stats().chunksDispatched.load(), 0u);
}

TEST(CoordinatorE2eTest, RunAndIsolatedForwardRoundRobinWithFailover)
{
    TestBackend backend;
    // Backend 0 is dead: the round-robin must fail over to backend 1
    // (or probe 0 out) and still return the canonical rendering.
    CoordinatorOptions options =
        coordOptions({{"127.0.0.1", 1}, backend.config()});
    Coordinator coordinator(options);

    Json runDoc = Json::object();
    runDoc.set("op", Json::string("run"));
    Json workload = Json::array();
    workload.push(Json::string("mcf"));
    workload.push(Json::string("tonto"));
    runDoc.set("workload", std::move(workload));
    runDoc.set("report", Json::string("csv-threads"));
    const serve::Request runReq = serve::parseRequest(runDoc);

    StudyEngine reference(fastStudy());
    const Json runBody = coordinator.execute(runReq);
    EXPECT_TRUE(runBody.at("ok").asBool());
    EXPECT_FALSE(runBody.has("id")); // backend id echo must be stripped
    EXPECT_EQ(runBody.at("output").asString(),
              serve::runText(reference, runReq.run));

    Json isoDoc = Json::object();
    isoDoc.set("op", Json::string("isolated"));
    Json benches = Json::array();
    benches.push(Json::string("astar"));
    isoDoc.set("benches", std::move(benches));
    const serve::Request isoReq = serve::parseRequest(isoDoc);
    const Json isoBody = coordinator.execute(isoReq);
    EXPECT_EQ(isoBody.at("output").asString(),
              serve::isolatedText(reference, isoReq.isolated));

    EXPECT_EQ(coordinator.stats().forwarded.load(), 2u);
    EXPECT_EQ(coordinator.stats().forwardLocal.load(), 0u);
}

serve::Request
scheduleRequest()
{
    Json doc = Json::object();
    doc.set("op", Json::string("schedule"));
    doc.set("design", Json::string("3B5s"));
    Json benchmarks = Json::array();
    benchmarks.push(Json::string("mcf"));
    benchmarks.push(Json::string("hmmer"));
    benchmarks.push(Json::string("lbm"));
    benchmarks.push(Json::string("h264ref"));
    doc.set("benchmarks", std::move(benchmarks));
    doc.set("policy", Json::string("pairing"));
    return serve::parseRequest(doc);
}

TEST(CoordinatorE2eTest, ScheduleForwardsWithFailoverByteIdentically)
{
    TestBackend backend;
    // Backend 0 is dead: schedule must fail over like run/isolated and
    // still return the single-node rendering byte for byte.
    CoordinatorOptions options =
        coordOptions({{"127.0.0.1", 1}, backend.config()});
    Coordinator coordinator(options);

    const serve::Request req = scheduleRequest();
    StudyEngine reference(fastStudy());
    const std::string expected =
        serve::scheduleText(reference, req.schedule);

    const Json body = coordinator.execute(req);
    EXPECT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), expected);
    EXPECT_EQ(coordinator.stats().forwarded.load(), 1u);
    EXPECT_EQ(coordinator.stats().forwardLocal.load(), 0u);

    // The backend memoises the decision: a repeat is answered from its
    // response cache, still byte-identical.
    const Json again = coordinator.execute(scheduleRequest());
    EXPECT_EQ(again.at("output").asString(), expected);
    EXPECT_GT(backend.server().stats().cacheHits.load(), 0u);
}

TEST(CoordinatorE2eTest, ScheduleFallsBackToLocalOnDeadFleet)
{
    CoordinatorOptions options = coordOptions({{"127.0.0.1", 1}});
    options.pool.quarantineAfter = 1;
    Coordinator coordinator(options);

    const serve::Request req = scheduleRequest();
    StudyEngine reference(fastStudy());
    const Json body = coordinator.execute(req);
    EXPECT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(),
              serve::scheduleText(reference, req.schedule));
    EXPECT_EQ(coordinator.stats().forwarded.load(), 0u);
    EXPECT_EQ(coordinator.stats().forwardLocal.load(), 1u);
}

TEST(CoordinatorE2eTest, DeadFleetForwardsFallBackToLocalRendering)
{
    CoordinatorOptions options = coordOptions({{"127.0.0.1", 1}});
    options.pool.quarantineAfter = 1;
    Coordinator coordinator(options);

    Json doc = Json::object();
    doc.set("op", Json::string("run"));
    Json workload = Json::array();
    workload.push(Json::string("hmmer"));
    doc.set("workload", std::move(workload));
    const serve::Request req = serve::parseRequest(doc);

    StudyEngine reference(fastStudy());
    const Json body = coordinator.execute(req);
    EXPECT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(),
              serve::runText(reference, req.run));
    EXPECT_EQ(coordinator.stats().forwarded.load(), 0u);
    EXPECT_EQ(coordinator.stats().forwardLocal.load(), 1u);
}

TEST(CoordinatorE2eTest, WireProtocolAndDistMetricsWorkEndToEnd)
{
    TestBackend backend;
    CoordinatorOptions options = coordOptions({backend.config()});
    Coordinator coordinator(options);
    coordinator.bind();
    std::thread runner([&] { coordinator.run(); });

    // An ordinary serve client against the coordinator: same protocol.
    serve::Client client;
    client.connect("127.0.0.1", coordinator.port());
    Json sweep = Json::object();
    sweep.set("op", Json::string("sweep"));
    sweep.set("bench", Json::string("gcc"));
    sweep.set("id", Json::number(std::uint64_t{11}));
    const Json reply = client.call(sweep);
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("id").asU64(), 11u);
    StudyEngine reference(fastStudy());
    EXPECT_EQ(reply.at("output").asString(),
              serve::sweepText(reference, sweepRequest("gcc").sweep));

    // The dist.* spine is visible through the standard metrics op.
    Json metrics = Json::object();
    metrics.set("op", Json::string("metrics"));
    const Json exposed = client.call(metrics);
    ASSERT_TRUE(exposed.at("ok").asBool());
    const std::string &text = exposed.at("exposition").asString();
    EXPECT_NE(text.find("smtflex_dist_sweeps 1"), std::string::npos);
    EXPECT_NE(text.find("smtflex_dist_chunks_dispatched"),
              std::string::npos);
    EXPECT_NE(text.find("smtflex_dist_backend_0_healthy 1"),
              std::string::npos);
    // The last call's latency: an exact integer in both renderings.
    const double latency =
        exposed.at("metrics").at("dist.backend.0.latency_us").asNumber();
    EXPECT_GT(latency, 0.0);
    EXPECT_NE(text.find("smtflex_dist_backend_0_latency_us " +
                        std::to_string(static_cast<std::uint64_t>(latency)) +
                        "\n"),
              std::string::npos)
        << text;

    coordinator.requestStop();
    runner.join();
}

} // namespace
} // namespace dist
} // namespace smtflex
