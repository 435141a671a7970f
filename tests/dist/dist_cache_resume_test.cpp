/**
 * @file
 * Durable coordinator sweeps: every record the fleet delivers is stored
 * into the coordinator's ResultCache and flushed before the planner marks
 * its chunk complete, so the cache is the sweep's only durable log. These
 * tests model the SIGKILL-and-restart cycle in process: a fresh
 * Coordinator on the same cache file must produce the byte-identical sweep
 * output with zero recompute of delivered chunks — even with no fleet at
 * all — and a coordinator resuming from a partial cache must dispatch only
 * the undelivered remainder.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "serve/commands.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "study/result_cache.h"
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

/** A coordinator over @p backends whose result cache lives at
 * @p cache_path. */
CoordinatorOptions
coordOptions(const std::vector<BackendConfig> &backends,
             const std::string &cache_path)
{
    CoordinatorOptions options;
    options.server.port = 0;
    options.server.study = fastStudy();
    options.server.study.cachePath = cache_path;
    options.backends = backends;
    options.pool.probeTimeoutMs = 500;
    options.pool.connectTimeoutMs = 500;
    options.stealAfterMs = 2'000;
    options.chunkRows = 1; // many chunks, one cache flush per chunk
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

class DistCacheResumeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testTempPath("smtflex_dist_cache_resume") + ".txt";
        removeTestTempFiles(path_);
    }

    void TearDown() override { removeTestTempFiles(path_); }

    /** The coordinators' shared result cache (and its shard segments). */
    std::string path_;
};

TEST_F(DistCacheResumeTest, RestartedCoordinatorReplaysAndRecomputesNothing)
{
    // Phase 1: a live 2-backend fleet computes the sweep; every chunk's
    // records reach the coordinator's cache file before completion.
    std::string expected;
    {
        TestBackend b0, b1;
        Coordinator first(coordOptions({b0.config(), b1.config()}, path_));
        const Json body = first.execute(sweepRequest("mcf"));
        ASSERT_TRUE(body.at("ok").asBool());
        expected = body.at("output").asString();
        EXPECT_GT(first.stats().chunksDispatched.load(), 0u);
        EXPECT_GT(first.stats().recordsStored.load(), 0u);
        EXPECT_EQ(first.stats().rowsLocal.load(), 0u);
    }
    EXPECT_GT(ResultCache(path_).size(), 0u);

    // Phase 2: the "restart after SIGKILL" — a brand-new coordinator on
    // the same cache file, NO fleet at all. The cache alone must carry
    // the sweep: byte-identical output, zero chunks dispatched, zero
    // records recomputed locally.
    Coordinator resumed(coordOptions({}, path_));

    const Json body = resumed.execute(sweepRequest("mcf"));
    ASSERT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), expected);
    EXPECT_EQ(resumed.stats().chunksDispatched.load(), 0u);
    EXPECT_EQ(resumed.stats().recordsMissingAtRender.load(), 0u);
    EXPECT_EQ(resumed.stats().rowsLocal.load(), 0u);
}

TEST_F(DistCacheResumeTest, PartialCacheResumesComputingOnlyTheRemainder)
{
    // Phase 1 as above: produce a complete cache.
    const serve::Request request = sweepRequest("milc");
    std::string expected;
    std::uint64_t full_chunks = 0;
    {
        TestBackend b0;
        Coordinator first(coordOptions({b0.config()}, path_));
        const Json body = first.execute(request);
        ASSERT_TRUE(body.at("ok").asBool());
        expected = body.at("output").asString();
        full_chunks = first.stats().chunksDispatched.load();
        EXPECT_GT(full_chunks, 1u);
    }

    // The sweep's rows as the coordinator cuts them, each with its keys.
    const serve::SweepRequest &req = request.sweep;
    const ChipConfig cfg = serve::buildDesign(req.design, req.noSmt,
                                              req.hasBw, req.bw, false);
    const StudyEngine keys(fastStudy());
    std::vector<std::vector<std::string>> row_keys;
    for (const std::uint32_t n : keys.sweepThreadCounts()) {
        if (n > cfg.totalContexts())
            break;
        row_keys.push_back(
            keys.sweepRowCacheKeys(cfg, req.bench, req.het, n));
    }
    ASSERT_GT(row_keys.size(), 1u);

    // Model a kill mid-sweep: a second cache holding only the first half
    // of the rows' records.
    const std::string partial_path = path_ + ".partial";
    {
        const ResultCache full(path_);
        ResultCache partial(partial_path);
        for (std::size_t r = 0; r < row_keys.size() / 2; ++r) {
            for (const auto &key : row_keys[r]) {
                const auto values = full.lookup(key);
                ASSERT_TRUE(values.has_value()) << key;
                partial.store(key, *values);
            }
        }
    }

    // Phase 2: resume against a COLD backend (nothing to federate). The
    // coordinator must dispatch only the rows the partial cache does not
    // cover, and still render the byte-identical sweep.
    TestBackend cold;
    Coordinator resumed(coordOptions({cold.config()}, partial_path));
    const Json body = resumed.execute(request);
    ASSERT_TRUE(body.at("ok").asBool());
    EXPECT_EQ(body.at("output").asString(), expected);
    EXPECT_GT(resumed.stats().chunksDispatched.load(), 0u);
    EXPECT_LT(resumed.stats().chunksDispatched.load(), full_chunks);
    EXPECT_EQ(resumed.stats().recordsMissingAtRender.load(), 0u);
    EXPECT_EQ(resumed.stats().rowsLocal.load(), 0u);

    // Phase 3: the resumed coordinator stored what the fleet computed in
    // the partial cache, so a third "restart" — fleet-less — needs no
    // recompute at all.
    Coordinator third(coordOptions({}, partial_path));
    const Json final_body = third.execute(request);
    ASSERT_TRUE(final_body.at("ok").asBool());
    EXPECT_EQ(final_body.at("output").asString(), expected);
    EXPECT_EQ(third.stats().chunksDispatched.load(), 0u);
    EXPECT_EQ(third.stats().recordsMissingAtRender.load(), 0u);
}

} // namespace
} // namespace dist
} // namespace smtflex
