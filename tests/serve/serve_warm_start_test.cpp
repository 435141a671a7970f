/**
 * @file
 * Serve warm-start e2e: a server with SMTFLEX_CKPT on snapshots the chip
 * state of a run request; a later request sharing the resume-key prefix
 * (same design/workload/warmup/seed, larger budget) clone-resumes the
 * warmed state instead of cold-starting. The reuse is observable through
 * the ckpt.* counters in the stats op — and the warmed answer is
 * byte-identical to the cold one.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "ckpt/store.h"
#include "serve/client.h"
#include "serve/commands.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "study/study_engine.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace serve {
namespace {

Json
runDoc(std::uint64_t budget)
{
    Json doc = Json::object();
    doc.set("op", Json::string("run"));
    doc.set("design", Json::string("4B"));
    Json workload = Json::array();
    workload.push(Json::string("mcf"));
    doc.set("workload", std::move(workload));
    doc.set("budget", Json::number(budget));
    doc.set("warmup", Json::number(std::uint64_t{3'000}));
    doc.set("seed", Json::number(std::uint64_t{42}));
    return doc;
}

TEST(ServeWarmStartTest, LargerBudgetRunWarmStartsFromSnapshots)
{
    const std::string dir =
        testTempPath("smtflex_serve_warm_start");
    std::filesystem::remove_all(dir);

    // Cold references, computed before checkpointing is turned on.
    ckpt::configureProcess("", 1);
    StudyOptions study;
    study.cachePath = "";
    StudyEngine reference(study);
    const std::string expected_short =
        runText(reference, parseRequest(runDoc(12'000)).run);
    StudyEngine reference_long(study);
    const std::string expected_long =
        runText(reference_long, parseRequest(runDoc(24'000)).run);

    // The server under test, with snapshots every 5k cycles.
    ckpt::configureProcess(dir, 5'000);
    ServerOptions options;
    options.port = 0;
    options.study = study;
    Server server(std::move(options));
    server.bind();
    std::thread runner([&] { server.run(); });

    Client client;
    client.connect("127.0.0.1", server.port());

    const auto hits0 = ckpt::processStats().hits.load();
    const auto saves0 = ckpt::processStats().saves.load();

    // Request 1 populates the snapshot store while it runs.
    const Json first = client.call(runDoc(12'000));
    ASSERT_TRUE(first.at("ok").asBool());
    EXPECT_EQ(first.at("output").asString(), expected_short);
    EXPECT_GT(ckpt::processStats().saves.load(), saves0);

    // Request 2 shares the key prefix (only the budget grew): it must
    // resume from request 1's snapshots and still answer byte-identically.
    const Json second = client.call(runDoc(24'000));
    ASSERT_TRUE(second.at("ok").asBool());
    EXPECT_EQ(second.at("output").asString(), expected_long);
    EXPECT_GT(ckpt::processStats().hits.load(), hits0);

    // The reuse is operator-visible through the stats op.
    Json statsReq = Json::object();
    statsReq.set("op", Json::string("stats"));
    const Json statsReply = client.call(statsReq);
    ASSERT_TRUE(statsReply.at("ok").asBool());
    const Json &stats = statsReply.at("stats");
    ASSERT_TRUE(stats.has("ckpt.hits"));
    EXPECT_GE(stats.at("ckpt.hits").asU64(), 1u);
    ASSERT_TRUE(stats.has("ckpt.saves"));
    EXPECT_GT(stats.at("ckpt.saves").asU64(), 0u);

    client.close();
    server.requestStop();
    runner.join();

    ckpt::resetProcess();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace serve
} // namespace smtflex
