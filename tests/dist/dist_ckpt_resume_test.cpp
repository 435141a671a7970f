/**
 * @file
 * Durable coordinator sweeps: with SMTFLEX_CKPT on, every delivered
 * chunk's records are journaled (fsync-per-append) before the planner
 * marks the chunk complete. These tests model the SIGKILL-and-restart
 * cycle in process: a fresh Coordinator pointed at the same checkpoint
 * directory must replay the journal and produce the byte-identical sweep
 * output with zero recompute of delivered chunks — even with no fleet at
 * all — and a coordinator resuming from a partial journal must dispatch
 * only the undelivered remainder.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/journal.h"
#include "ckpt/store.h"
#include "dist/coordinator.h"
#include "serve/commands.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "study/study_engine.h"
#include "tests/common/temp_path.h"

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
    options.pool.probeTimeoutMs = 500;
    options.pool.connectTimeoutMs = 500;
    options.stealAfterMs = 2'000;
    options.chunkRows = 1; // many chunks, one journal frame per chunk
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

class DistCkptResumeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = testTempPath("smtflex_dist_ckpt_resume");
        std::filesystem::remove_all(dir_);
        // A huge snapshot interval: the tiny study runs never cross it,
        // so the test isolates the journal from chip snapshotting.
        ckpt::configureProcess(dir_, 1'000'000'000);
    }

    void TearDown() override
    {
        ckpt::resetProcess();
        std::filesystem::remove_all(dir_);
        std::filesystem::remove_all(dir_ + "2");
    }

    std::string dir_;
};

TEST_F(DistCkptResumeTest, RestartedCoordinatorReplaysAndRecomputesNothing)
{
    // Phase 1: a live 2-backend fleet computes the sweep; every chunk is
    // journaled before completion.
    std::string expected;
    std::uint64_t delivered_chunks = 0;
    {
        TestBackend b0, b1;
        Coordinator first(coordOptions({b0.config(), b1.config()}));
        const Json body = first.execute(sweepRequest("mcf"));
        ASSERT_TRUE(body.at("ok").asBool());
        expected = body.at("output").asString();
        delivered_chunks = first.stats().chunksDispatched.load();
        EXPECT_GT(delivered_chunks, 0u);
        EXPECT_EQ(first.stats().rowsLocal.load(), 0u);
    }
    ASSERT_TRUE(
        std::filesystem::exists(dir_ + "/sweep.journal"));
    EXPECT_GT(ckpt::processStats().journalAppends.load(), 0u);

    // Phase 2: the "restart after SIGKILL" — a brand-new coordinator,
    // empty result cache, NO fleet at all. The journal alone must carry
    // the sweep: byte-identical output, zero chunks dispatched, zero
    // records recomputed locally.
    const auto replayed0 = ckpt::processStats().journalReplayed.load();
    Coordinator resumed(coordOptions({}));
    EXPECT_GT(ckpt::processStats().journalReplayed.load(), replayed0);

    const Json body = resumed.execute(sweepRequest("mcf"));
    ASSERT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), expected);
    EXPECT_EQ(resumed.stats().chunksDispatched.load(), 0u);
    EXPECT_EQ(resumed.stats().recordsMissingAtRender.load(), 0u);
    EXPECT_EQ(resumed.stats().rowsLocal.load(), 0u);
}

TEST_F(DistCkptResumeTest, PartialJournalResumesComputingOnlyTheRemainder)
{
    // Phase 1 as above: produce a complete journal.
    std::string expected;
    std::uint64_t full_chunks = 0;
    {
        TestBackend b0;
        Coordinator first(coordOptions({b0.config()}));
        const Json body = first.execute(sweepRequest("milc"));
        ASSERT_TRUE(body.at("ok").asBool());
        expected = body.at("output").asString();
        full_chunks = first.stats().chunksDispatched.load();
        EXPECT_GT(full_chunks, 1u);
    }

    // Model a kill mid-sweep: rebuild the journal in a second checkpoint
    // directory holding only the first half of the delivered records.
    std::vector<ckpt::SweepJournal::Record> records;
    {
        ckpt::SweepJournal full(dir_ + "/sweep.journal",
                                &ckpt::processStats());
        full.replay([&](const ckpt::SweepJournal::Record &r) {
            records.push_back(r);
        });
    }
    ASSERT_GT(records.size(), 3u);
    const std::string dir2 = dir_ + "2";
    std::filesystem::create_directories(dir2);
    {
        ckpt::SweepJournal partial(dir2 + "/sweep.journal",
                                   &ckpt::processStats());
        records.resize(records.size() / 2);
        ASSERT_TRUE(partial.append(records));
    }

    // Phase 2: resume against a COLD backend (nothing to federate). The
    // coordinator must dispatch only the rows the partial journal does
    // not cover, and still render the byte-identical sweep.
    ckpt::configureProcess(dir2, 1'000'000'000);
    TestBackend cold;
    Coordinator resumed(coordOptions({cold.config()}));
    const Json body = resumed.execute(sweepRequest("milc"));
    ASSERT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), expected);
    EXPECT_GT(resumed.stats().chunksDispatched.load(), 0u);
    EXPECT_LT(resumed.stats().chunksDispatched.load(), full_chunks);
    EXPECT_EQ(resumed.stats().recordsMissingAtRender.load(), 0u);
    EXPECT_EQ(resumed.stats().rowsLocal.load(), 0u);

    // Phase 3: the resumed coordinator journaled what it computed, so a
    // third "restart" — fleet-less — needs no recompute at all.
    Coordinator third(coordOptions({}));
    const Json final_body = third.execute(sweepRequest("milc"));
    ASSERT_TRUE(final_body.at("ok").asBool());
    EXPECT_EQ(final_body.at("output").asString(), expected);
    EXPECT_EQ(third.stats().chunksDispatched.load(), 0u);
    EXPECT_EQ(third.stats().recordsMissingAtRender.load(), 0u);
}

} // namespace
} // namespace dist
} // namespace smtflex
