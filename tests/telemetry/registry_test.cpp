/**
 * @file
 * Tests of the telemetry metric spine: typed values, path validation,
 * counter/gauge/info registration, subtree walks, snapshots,
 * Prometheus exposition, the attachCounters/StatsProvider helpers, and
 * the one concurrency contract the registry makes — atomic counter cells
 * may be read while another thread bumps them.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "telemetry/registry.h"

namespace smtflex {
namespace telemetry {
namespace {

TEST(MetricValueTest, TypedFactoriesAndAccessors)
{
    EXPECT_EQ(MetricValue::u64(7).asU64(), 7u);
    EXPECT_DOUBLE_EQ(MetricValue::real(0.25).asDouble(), 0.25);
    EXPECT_TRUE(MetricValue::boolean(true).asBool());
    EXPECT_EQ(MetricValue::string("4B").asString(), "4B");

    EXPECT_TRUE(MetricValue::u64(1).isU64());
    EXPECT_TRUE(MetricValue::real(1.0).isDouble());
    EXPECT_TRUE(MetricValue::boolean(false).isBool());
    EXPECT_TRUE(MetricValue::string("x").isString());
}

TEST(MetricValueTest, MismatchedAccessIsFatal)
{
    EXPECT_THROW(MetricValue::u64(1).asDouble(), FatalError);
    EXPECT_THROW(MetricValue::real(1.0).asU64(), FatalError);
    EXPECT_THROW(MetricValue::string("x").asBool(), FatalError);
    EXPECT_THROW(MetricValue::boolean(true).asString(), FatalError);
}

TEST(MetricValueTest, NumericWidensEverythingButStrings)
{
    EXPECT_DOUBLE_EQ(MetricValue::u64(3).numeric(), 3.0);
    EXPECT_DOUBLE_EQ(MetricValue::real(2.5).numeric(), 2.5);
    EXPECT_DOUBLE_EQ(MetricValue::boolean(true).numeric(), 1.0);
    EXPECT_DOUBLE_EQ(MetricValue::boolean(false).numeric(), 0.0);
    EXPECT_THROW(MetricValue::string("x").numeric(), FatalError);
}

TEST(MetricValueTest, EqualityComparesTagAndPayload)
{
    EXPECT_EQ(MetricValue::u64(5), MetricValue::u64(5));
    EXPECT_FALSE(MetricValue::u64(5) == MetricValue::u64(6));
    // Same numeric value, different tag: not equal.
    EXPECT_FALSE(MetricValue::u64(1) == MetricValue::real(1.0));
    EXPECT_EQ(MetricValue::string("a"), MetricValue::string("a"));
}

TEST(MetricPathTest, AcceptsDottedLowercasePaths)
{
    validateMetricPath("core.0.retired");
    validateMetricPath("llc.misses");
    validateMetricPath("serve.queue_depth");
    validateMetricPath("a");
}

TEST(MetricPathTest, RejectsMalformedPaths)
{
    EXPECT_THROW(validateMetricPath(""), FatalError);
    EXPECT_THROW(validateMetricPath("."), FatalError);
    EXPECT_THROW(validateMetricPath(".x"), FatalError);
    EXPECT_THROW(validateMetricPath("x."), FatalError);
    EXPECT_THROW(validateMetricPath("a..b"), FatalError);
    EXPECT_THROW(validateMetricPath("Core.retired"), FatalError);
    EXPECT_THROW(validateMetricPath("core-0"), FatalError);
    EXPECT_THROW(validateMetricPath("core 0"), FatalError);
}

TEST(MetricRegistryTest, CounterViewsTrackTheProducerCell)
{
    std::uint64_t cell = 0;
    MetricRegistry reg;
    reg.counter("chip.cycles", &cell);

    EXPECT_EQ(reg.read("chip.cycles").asU64(), 0u);
    cell = 41;
    // Zero hot-path cost: the producer bumped a plain uint64_t; the
    // registry sees the new value only when read.
    EXPECT_EQ(reg.read("chip.cycles").asU64(), 41u);
}

TEST(MetricRegistryTest, GaugesEvaluateAtReadTime)
{
    int depth = 2;
    MetricRegistry reg;
    reg.gauge("q.depth", [&] { return std::uint64_t(depth); });
    reg.gaugeReal("q.ratio", [&] { return depth / 4.0; });
    reg.gaugeBool("q.busy", [&] { return depth > 0; });
    reg.info("q.name", [] { return std::string("main"); });

    EXPECT_EQ(reg.read("q.depth").asU64(), 2u);
    depth = 0;
    EXPECT_EQ(reg.read("q.depth").asU64(), 0u);
    EXPECT_DOUBLE_EQ(reg.read("q.ratio").asDouble(), 0.0);
    EXPECT_FALSE(reg.read("q.busy").asBool());
    EXPECT_EQ(reg.read("q.name").asString(), "main");
}

TEST(MetricRegistryTest, DuplicateAndUnknownPathsAreFatal)
{
    std::uint64_t cell = 0;
    MetricRegistry reg;
    reg.counter("a.b", &cell);
    EXPECT_THROW(reg.counter("a.b", &cell), FatalError);
    EXPECT_THROW(reg.read("a.missing"), FatalError);
    EXPECT_THROW(reg.counter("Bad.Path", &cell), FatalError);
}

TEST(MetricRegistryTest, SubtreeWalkStripsPrefixAndRespectsBoundaries)
{
    std::uint64_t one = 1, two = 2, three = 3;
    MetricRegistry reg;
    reg.counter("serve.requests", &one);
    reg.counter("serve.responses", &two);
    // A sibling whose name shares the prefix characters but not the
    // dotted boundary must not appear in the subtree.
    reg.counter("server_other.x", &three);

    std::vector<std::string> names;
    std::vector<std::uint64_t> values;
    reg.forEachInSubtree("serve", [&](const std::string &name, MetricKind kind,
                                      const MetricValue &value) {
        EXPECT_EQ(kind, MetricKind::kCounter);
        names.push_back(name);
        values.push_back(value.asU64());
    });
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "requests");
    EXPECT_EQ(names[1], "responses");
    EXPECT_EQ(values[0], 1u);
    EXPECT_EQ(values[1], 2u);
}

TEST(MetricRegistryTest, SnapshotMaterialisesEveryMetric)
{
    std::uint64_t cell = 9;
    MetricRegistry reg;
    reg.counter("chip.cycles", &cell);
    reg.gaugeReal("chip.freq_ghz", [] { return 2.5; });
    EXPECT_FALSE(reg.contains("chip.nope"));

    const Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.size(), 2u);
    EXPECT_TRUE(snap.contains("chip.cycles"));
    EXPECT_FALSE(snap.contains("chip.nope"));
    EXPECT_EQ(snap.u64("chip.cycles"), 9u);
    EXPECT_DOUBLE_EQ(snap.at("chip.freq_ghz").numeric(), 2.5);
    EXPECT_THROW(snap.at("chip.nope"), FatalError);

    // The snapshot is a copy: later producer bumps do not retroact.
    cell = 10;
    EXPECT_EQ(snap.u64("chip.cycles"), 9u);

    Snapshot rebuilt;
    rebuilt.set("chip.cycles", MetricValue::u64(9));
    rebuilt.set("chip.freq_ghz", MetricValue::real(2.5));
    EXPECT_TRUE(snap == rebuilt);
}

TEST(MetricRegistryTest, ExpositionRendersPrometheusText)
{
    std::uint64_t cell = 3;
    MetricRegistry reg;
    reg.counter("llc.misses", &cell);
    reg.gaugeBool("chip.hit_cycle_limit", [] { return true; });
    reg.info("chip.config", [] { return std::string("4B \"quoted\"\n"); });

    const std::string text = reg.exposition();
    EXPECT_NE(text.find("# TYPE smtflex_llc_misses counter\n"
                        "smtflex_llc_misses 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE smtflex_chip_hit_cycle_limit gauge\n"
                        "smtflex_chip_hit_cycle_limit 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("smtflex_chip_config_info"
                        "{value=\"4B \\\"quoted\\\"\\n\"} 1\n"),
              std::string::npos);
}

struct FakeStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("hits", &FakeStats::hits);
        f("misses", &FakeStats::misses);
    }
};

TEST(AttachCountersTest, RegistersEveryDeclaredField)
{
    FakeStats stats;
    MetricRegistry reg;
    attachCounters(reg, "fake", stats);
    stats.hits = 5;
    stats.misses = 2;
    EXPECT_EQ(reg.read("fake.hits").asU64(), 5u);
    EXPECT_EQ(reg.read("fake.misses").asU64(), 2u);
}

TEST(AttachHistogramTest, RegistersOneGaugePerBucket)
{
    std::vector<double> fractions = {0.5, 0.25, 0.25};
    MetricRegistry reg;
    attachHistogram(reg, "chip.active_threads", fractions.size(),
                    [&](std::size_t k) { return fractions[k]; });
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_DOUBLE_EQ(reg.read("chip.active_threads.0").asDouble(), 0.5);
    EXPECT_DOUBLE_EQ(reg.read("chip.active_threads.2").asDouble(), 0.25);
    fractions[2] = 0.75; // gauges evaluate at read time
    EXPECT_DOUBLE_EQ(reg.read("chip.active_threads.2").asDouble(), 0.75);
}

struct FakeAtomicStats
{
    std::atomic<std::uint64_t> events{0};

    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("events", &FakeAtomicStats::events);
    }
};

TEST(AttachCountersTest, HandlesAtomicMembers)
{
    FakeAtomicStats stats;
    MetricRegistry reg;
    attachCounters(reg, "srv", stats);
    stats.events.store(7);
    EXPECT_EQ(reg.read("srv.events").asU64(), 7u);
}

class FakeModel : public StatsProvider<FakeStats>
{
  public:
    void touch() { stats_.hits++; }
};

TEST(StatsProviderTest, SharedStatsAndClearIdiom)
{
    FakeModel model;
    model.touch();
    model.touch();
    EXPECT_EQ(model.stats().hits, 2u);
    model.clearStats();
    EXPECT_EQ(model.stats().hits, 0u);
    EXPECT_EQ(model.stats().misses, 0u);
}

/** The serve-layer pattern under tsan: worker threads bump atomic cells
 * while a reader thread walks/snapshots the registry. */
TEST(MetricRegistryTest, AtomicCountersReadableWhileBumped)
{
    FakeAtomicStats stats;
    MetricRegistry reg;
    attachCounters(reg, "srv", stats);

    constexpr std::uint64_t kBumps = 50'000;
    std::thread writer([&] {
        for (std::uint64_t i = 0; i < kBumps; ++i)
            stats.events.fetch_add(1, std::memory_order_relaxed);
    });
    std::uint64_t last = 0;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t seen = reg.snapshot().u64("srv.events");
        EXPECT_GE(seen, last); // monotone under concurrent bumps
        last = seen;
    }
    writer.join();
    EXPECT_EQ(reg.read("srv.events").asU64(), kBumps);
}

} // namespace
} // namespace telemetry
} // namespace smtflex
