/**
 * @file
 * smtflex::telemetry — the hierarchical metric registry: a live view of a
 * long-running process's counters by dotted path (`serve.requests`,
 * `sched.decisions`, `dist.forwarded`). The serve layer owns one and
 * answers its `stats` and `metrics` ops from it.
 *
 * Registration happens once, at construction; the increments stay plain
 * bumps on the producers' own stats structs, because the registry holds
 * *views* — a pointer to the producer's cell, or a closure for computed
 * gauges — and only dereferences them when a consumer reads.
 *
 * A simulation run keeps no live registry. Its readings are the SimResult
 * structs, and resultMetrics() (sim/chip_sim.h) lays them out on the
 * `core.<i>.*` / `llc.*` / `dram.*` / `xbar.*` / `chip.*` schema by
 * snapshotting a throwaway registry of views over the result. The
 * simulator components share only the stats idiom below
 * (`forEachCounter`, StatsProvider).
 *
 * Consumers walk the registry: forEach()/forEachInSubtree() visit metrics
 * in sorted path order, snapshot() materialises the current readings, and
 * exposition() renders Prometheus-style text. The serve stats body and the
 * `metrics` op are such walks; the text/CSV reports read a result's
 * snapshot.
 */

#ifndef SMTFLEX_TELEMETRY_REGISTRY_H
#define SMTFLEX_TELEMETRY_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "telemetry/metric.h"

namespace smtflex {
namespace telemetry {

/**
 * A materialised set of readings: path -> value, taken from a registry
 * walk. resultMetrics() builds one from a SimResult so reports can render
 * from paths without reaching back into per-component structs.
 */
class Snapshot
{
  public:
    void set(std::string path, MetricValue value);

    std::size_t size() const { return values_.size(); }
    bool contains(const std::string &path) const;

    /** Reading at @p path; fatal() naming the path when absent. */
    const MetricValue &at(const std::string &path) const;

    /** Counter reading at @p path (fatal() on absence or type mismatch). */
    std::uint64_t u64(const std::string &path) const;

    /** Visit every reading in sorted path order. */
    template <typename F>
    void forEach(F &&visit) const
    {
        for (const auto &[path, value] : values_)
            visit(path, value);
    }

    const std::map<std::string, MetricValue> &entries() const
    {
        return values_;
    }

    bool operator==(const Snapshot &other) const
    {
        return values_ == other.values_;
    }

  private:
    std::map<std::string, MetricValue> values_;
};

/**
 * The registry. Not internally synchronised: registration and structural
 * walks belong to the owning component's thread. Counter views over
 * std::atomic cells may be *read* (via snapshot/walks) while other
 * threads bump them — that is the serve layer's pattern; the plain-cell
 * views are only safe when reader and writer are the same thread or the
 * producer is quiescent (the simulator reads between runs).
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    // ---- registration (once, at construction) ----

    /** Counter view over a plain cell the producer keeps bumping. */
    void counter(const std::string &path, const std::uint64_t *cell);

    /** Counter view over an atomic cell (serve's cross-thread counters). */
    void counter(const std::string &path,
                 const std::atomic<std::uint64_t> *cell);

    /** Computed gauges, evaluated at read time. */
    void gauge(const std::string &path, std::function<std::uint64_t()> fn);
    void gaugeReal(const std::string &path, std::function<double()> fn);
    void gaugeBool(const std::string &path, std::function<bool()> fn);

    /** String-valued exposition entry (a path, a mode name). */
    void info(const std::string &path, std::function<std::string()> fn);

    // ---- reads ----

    bool contains(const std::string &path) const;
    std::size_t size() const { return metrics_.size(); }

    /** Current reading of one metric; fatal() when absent. */
    MetricValue read(const std::string &path) const;

    /** Visit every metric as (path, kind, value), sorted by path. */
    void forEach(const std::function<void(const std::string &, MetricKind,
                                          const MetricValue &)> &visit) const;

    /**
     * Visit the metrics under @p prefix (dotted-path subtree: "serve"
     * matches "serve.requests" but not "server.x"), passing the path with
     * the prefix and its dot stripped.
     */
    void forEachInSubtree(
        const std::string &prefix,
        const std::function<void(const std::string &, MetricKind,
                                 const MetricValue &)> &visit) const;

    /** Materialise every metric's current reading. */
    Snapshot snapshot() const;

    /**
     * Prometheus-style text exposition of every metric: dotted
     * paths become underscore-separated names under @p name_prefix,
     * counters and gauges get `# TYPE` lines, booleans render as 0/1
     * gauges and strings as `<name>_info{value="..."} 1`.
     */
    std::string exposition(const std::string &name_prefix = "smtflex") const;

  private:
    struct Metric
    {
        MetricKind kind = MetricKind::kCounter;
        /** Exactly one of the views below is set. */
        const std::uint64_t *cell = nullptr;
        const std::atomic<std::uint64_t> *atomicCell = nullptr;
        std::function<MetricValue()> fn;

        MetricValue read() const;
    };

    void add(const std::string &path, Metric metric);

    std::map<std::string, Metric> metrics_;
};

/** Reject malformed metric paths (empty segments, characters outside
 * [a-z0-9_.]); fatal() naming the path. Exposed for tests. */
void validateMetricPath(const std::string &path);

/**
 * Register every field of a stats struct under @p prefix. The struct
 * declares its fields once via a static `forEachCounter(f)` that calls
 * `f(name, &Stats::member)` per counter — the single source of metric
 * names for registration, snapshot rebuilding and report walks alike.
 * Members may be plain std::uint64_t or std::atomic<std::uint64_t>.
 */
template <typename StatsT>
void
attachCounters(MetricRegistry &registry, const std::string &prefix,
               const StatsT &stats)
{
    StatsT::forEachCounter([&](const char *name, auto member) {
        registry.counter(prefix + "." + name, &(stats.*member));
    });
}

/**
 * Register a fraction-valued histogram as one gauge per bucket,
 * `<path>.<k>` for k in [0, buckets) — e.g. the chip's active-thread
 * distribution becomes `chip.active_threads.0` .. `.N`. @p fraction is
 * evaluated at read time with the bucket index.
 */
template <typename FractionFn>
void
attachHistogram(MetricRegistry &registry, const std::string &path,
                std::size_t buckets, FractionFn fraction)
{
    for (std::size_t k = 0; k < buckets; ++k)
        registry.gaugeReal(path + "." + std::to_string(k),
                           [fraction, k] { return fraction(k); });
}

/**
 * The shared stats()/clearStats() idiom, deduplicating the four
 * hand-rolled copies the cache, DRAM, crossbar and core models used to
 * carry (and giving CoreStats the clearStats() parity it lacked).
 * Derive publicly; the protected cell keeps hot-path increments as plain
 * member bumps.
 */
template <typename StatsT>
class StatsProvider
{
  public:
    const StatsT &stats() const { return stats_; }

    /** Reset statistics only (model state keeps running). */
    void clearStats() { stats_ = StatsT(); }

  protected:
    StatsT stats_;
};

} // namespace telemetry
} // namespace smtflex

#endif // SMTFLEX_TELEMETRY_REGISTRY_H
