/**
 * @file
 * Concurrency stress tests for the sharded ResultCache: parallel stores to
 * distinct keys, mixed store/lookup traffic on a shared hot set, and
 * persistence of everything written under contention. Run under
 * ThreadSanitizer via `ctest -L tsan`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "study/result_cache.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace {

class ResultCacheConcurrentTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testTempPath("smtflex_cache_mt_test") + ".txt";
        removeAll();
    }
    void TearDown() override { removeAll(); }

    void removeAll()
    {
        std::remove(path_.c_str());
        for (std::size_t i = 0; i < ResultCache::kNumShards; ++i) {
            std::ostringstream os;
            os << path_ << ".shard-" << (i < 10 ? "0" : "") << i;
            std::remove(os.str().c_str());
        }
    }

    static std::string keyFor(unsigned writer, unsigned i)
    {
        std::ostringstream os;
        os << "mt;w" << writer << ";k" << i;
        return os.str();
    }

    std::string path_;
};

TEST_F(ResultCacheConcurrentTest, ParallelStoresToDistinctKeysAllPersist)
{
    constexpr unsigned kWriters = 8;
    constexpr unsigned kPerWriter = 200;
    {
        ResultCache cache(path_);
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < kWriters; ++w) {
            threads.emplace_back([&, w] {
                for (unsigned i = 0; i < kPerWriter; ++i)
                    cache.store(keyFor(w, i),
                                {static_cast<double>(w), static_cast<double>(i)});
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(cache.size(), kWriters * kPerWriter);
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), kWriters * kPerWriter);
    for (unsigned w = 0; w < kWriters; ++w) {
        for (unsigned i = 0; i < kPerWriter; ++i) {
            const auto hit = reloaded.lookup(keyFor(w, i));
            ASSERT_TRUE(hit.has_value()) << keyFor(w, i);
            EXPECT_DOUBLE_EQ(hit->at(0), static_cast<double>(w));
            EXPECT_DOUBLE_EQ(hit->at(1), static_cast<double>(i));
        }
    }
}

TEST_F(ResultCacheConcurrentTest, MixedReadersAndWritersOnHotKeys)
{
    // Writers repeatedly overwrite a small hot set while readers hammer
    // lookup(). Readers must only ever observe one of the two well-formed
    // value vectors, never a torn mix.
    constexpr unsigned kHotKeys = 4;
    ResultCache cache(""); // in-memory: pure synchronisation stress
    std::atomic<bool> stop{false};
    std::atomic<unsigned> torn{0};

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < 2; ++w) {
        writers.emplace_back([&, w] {
            for (unsigned round = 0; round < 500; ++round) {
                const double v = (w == 0) ? 1.0 : 2.0;
                for (unsigned k = 0; k < kHotKeys; ++k)
                    cache.store("hot" + std::to_string(k), {v, v, v});
            }
        });
    }
    std::vector<std::thread> readers;
    for (unsigned r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                for (unsigned k = 0; k < kHotKeys; ++k) {
                    const auto hit = cache.lookup("hot" + std::to_string(k));
                    if (!hit.has_value())
                        continue;
                    if (hit->size() != 3 || hit->at(0) != hit->at(1) ||
                        hit->at(1) != hit->at(2))
                        torn.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true);
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(cache.size(), kHotKeys);
}

TEST_F(ResultCacheConcurrentTest, ConcurrentNastyKeysSurviveReload)
{
    // Escaping under contention: separator-laden keys from many threads
    // must not interleave into corrupt records.
    constexpr unsigned kWriters = 6;
    {
        ResultCache cache(path_);
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < kWriters; ++w) {
            threads.emplace_back([&, w] {
                for (unsigned i = 0; i < 50; ++i) {
                    std::ostringstream key;
                    key << "n|" << w << "\nrow" << i << "\\";
                    cache.store(key.str(), {static_cast<double>(w * 1000 + i)});
                }
            });
        }
        for (auto &t : threads)
            t.join();
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), kWriters * 50u);
    for (unsigned w = 0; w < kWriters; ++w) {
        std::ostringstream key;
        key << "n|" << w << "\nrow" << 49 << "\\";
        const auto hit = reloaded.lookup(key.str());
        ASSERT_TRUE(hit.has_value());
        EXPECT_DOUBLE_EQ(hit->at(0), static_cast<double>(w * 1000 + 49));
    }
}

} // namespace
} // namespace smtflex
