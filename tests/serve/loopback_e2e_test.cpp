/**
 * @file
 * Loopback end-to-end test: a real server on an ephemeral port, driven
 * by the load generator over 8 concurrent connections. Every simulation
 * response is compared byte-for-byte against the output of the serial
 * command core (the same renderers the CLI uses), and a second phase
 * verifies queue-full backpressure: rejected requests receive an
 * `overloaded` reply — they never hang and are never dropped.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "serve/commands.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "study/study_engine.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace serve {
namespace {

StudyOptions
e2eStudy()
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

TEST(LoopbackE2eTest, ServedResponsesMatchSerialRenderingByteForByte)
{
    ServerOptions options;
    options.study = e2eStudy();
    options.queueCapacity = 64; // ample: this phase tests correctness
    E2eServer ts(options);

    LoadGenOptions load;
    load.port = ts.port();
    load.connections = 8;
    load.requestsPerConnection = 6;
    load.seed = 3;
    load.mix = "ping=2,run=5,isolated=2,schedule=2";
    load.distinct = 4;
    load.budget = 2'000;
    load.warmup = 500;

    // Precompute, with an independent engine and the serial renderers the
    // CLI calls, the exact text of every simulation the generator can ask
    // for. The loadgen then compares each response against this table.
    StudyEngine reference(e2eStudy());
    for (const Json &doc : loadgenRequestPool(load)) {
        const Request req = parseRequest(doc);
        if (req.op == Op::kRun)
            load.expectedOutputs[req.canonicalKey()] =
                runText(reference, req.run);
        else if (req.op == Op::kIsolated)
            load.expectedOutputs[req.canonicalKey()] =
                isolatedText(reference, req.isolated);
        else if (req.op == Op::kSchedule)
            load.expectedOutputs[req.canonicalKey()] =
                scheduleText(reference, req.schedule);
    }
    ASSERT_FALSE(load.expectedOutputs.empty());

    const LoadGenReport report = runLoadGen(load);
    EXPECT_EQ(report.sent,
              std::uint64_t{load.connections} *
                  load.requestsPerConnection);
    EXPECT_EQ(report.ok, report.sent);
    EXPECT_EQ(report.mismatches, 0u) << report.summary();
    EXPECT_EQ(report.otherErrors, 0u) << report.summary();
    EXPECT_EQ(report.overloaded, 0u);
    // Only |distinct| unique simulations exist per op, so the shared
    // cache/coalescing layer must have absorbed the rest.
    EXPECT_GT(report.serverCacheHits + report.serverCoalesced, 0u)
        << report.summary();

    ts.stop();
    // Graceful drain answered everything that was admitted.
    const ServerStats &stats = ts.server().stats();
    EXPECT_GE(stats.responsesSent.load(), report.sent);
}

TEST(LoopbackE2eTest, MultiTargetLoadSpreadsConnectionsRoundRobin)
{
    // Two independent servers, one loadgen: connections alternate over
    // the targets and every server takes real traffic — the smoke test
    // for pointing one loadgen at a coordinator fleet.
    ServerOptions options;
    options.study = e2eStudy();
    E2eServer first(options);
    E2eServer second(options);

    LoadGenOptions load;
    load.targets = {{"127.0.0.1", first.port()},
                    {"127.0.0.1", second.port()}};
    load.connections = 4;
    load.requestsPerConnection = 5;
    load.seed = 7;
    load.mix = "ping=1,stats=1";

    const LoadGenReport report = runLoadGen(load);
    EXPECT_EQ(report.sent,
              std::uint64_t{load.connections} *
                  load.requestsPerConnection);
    EXPECT_EQ(report.ok, report.sent);
    EXPECT_EQ(report.otherErrors, 0u) << report.summary();

    // 2 connections (x5 requests) landed on each server; the monitor
    // and the final stats snapshot add reads to the FIRST target only.
    const std::uint64_t onFirst =
        first.server().stats().requestsReceived.load();
    const std::uint64_t onSecond =
        second.server().stats().requestsReceived.load();
    EXPECT_GE(onFirst, 10u);
    EXPECT_EQ(onSecond, 10u);
}

TEST(LoopbackE2eTest, SaturatedQueueRejectsWithOverloadedAndNeverHangs)
{
    ServerOptions options;
    options.study = e2eStudy();
    options.queueCapacity = 1; // force the backpressure path
    options.batchMax = 1;
    E2eServer ts(options);

    LoadGenOptions load;
    load.port = ts.port();
    load.connections = 8;
    load.requestsPerConnection = 4;
    load.seed = 11;
    load.mix = "ping=1";
    load.pingDelayMs = 30; // queued pings, distinct keys -> real load

    const LoadGenReport report = runLoadGen(load);
    EXPECT_EQ(report.sent,
              std::uint64_t{load.connections} *
                  load.requestsPerConnection);
    // Every request was answered: success or an explicit overloaded
    // rejection. Nothing hung (runLoadGen returned) or vanished.
    EXPECT_EQ(report.ok + report.overloaded, report.sent)
        << report.summary();
    EXPECT_GT(report.overloaded, 0u) << report.summary();
    EXPECT_EQ(report.otherErrors, 0u) << report.summary();

    ts.stop();
    EXPECT_EQ(ts.server().stats().overloaded.load(), report.overloaded);
}

TEST(LoopbackE2eTest, ResultCachePersistsAcrossServerRestarts)
{
    // First server instance: populate the on-disk result cache.
    const std::string cachePath =
        testTempPath("smtflex_e2e_cache") + ".txt";
    ServerOptions options;
    options.study = e2eStudy();
    options.study.cachePath = cachePath;
    options.queueCapacity = 64;

    LoadGenOptions load;
    load.connections = 4;
    load.requestsPerConnection = 4;
    load.seed = 5;
    load.mix = "run=1";
    load.distinct = 2;

    std::uint64_t firstExecuted = 0;
    {
        E2eServer ts(options);
        load.port = ts.port();
        const LoadGenReport report = runLoadGen(load);
        EXPECT_EQ(report.ok, report.sent) << report.summary();
        ts.stop(); // drains and flushes the shard files
        firstExecuted = ts.server().stats().executed.load();
        EXPECT_GT(firstExecuted, 0u);
    }

    // Second instance on the same cache path: the numeric results load
    // from disk, so the served outputs are identical.
    {
        E2eServer ts(options);
        load.port = ts.port();
        // In-memory reference: results are deterministic, so it renders
        // the same text without touching the server's cache files.
        StudyEngine reference(e2eStudy());
        load.expectedOutputs.clear();
        for (const Json &doc : loadgenRequestPool(load)) {
            const Request req = parseRequest(doc);
            if (req.op == Op::kRun)
                load.expectedOutputs[req.canonicalKey()] =
                    runText(reference, req.run);
        }
        const LoadGenReport report = runLoadGen(load);
        EXPECT_EQ(report.ok, report.sent) << report.summary();
        EXPECT_EQ(report.mismatches, 0u) << report.summary();
        ts.stop();
    }
    removeTestTempFiles(cachePath);
}

} // namespace
} // namespace serve
} // namespace smtflex
