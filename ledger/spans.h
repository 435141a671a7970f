/**
 * @file
 * In-memory span recording for the ledger's traced runs. A span is a
 * named [start, end) interval on one thread with the id of the span that
 * was open on that thread when it began (its parent). Spans are opened
 * only in the ledger's own code, around calls into the simulator's public
 * functions; nothing inside src/ is instrumented.
 *
 * Recording is off unless enabled, so untraced runs pay one branch per
 * span site. Spans are kept in memory and written once, at exit.
 */

#ifndef SMTFLEX_LEDGER_SPANS_H
#define SMTFLEX_LEDGER_SPANS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

/** Seconds on the steady clock (monotonic; arbitrary epoch). */
double nowSeconds();

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;
    std::uint32_t thread = 0; ///< small per-process thread number
    double start = 0.0;
    double end = 0.0;
};

/** Per-name totals: count, summed duration, summed self time. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

class Tracer
{
  public:
    static Tracer &global();

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its id (0 when off). */
    std::uint64_t begin(const char *name);
    /** Close span @p id (no-op for 0). */
    void end(std::uint64_t id);

    std::vector<SpanRecord> spans() const;

    /**
     * Totals by span name. A span's self time is its duration minus the
     * part of its interval covered by its children (the union of their
     * intervals, so overlapping children on other threads count once).
     */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span plus the per-name totals as JSON to @p path. */
    void write(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> closed_;
    std::map<std::uint64_t, SpanRecord> open_;
    std::uint64_t nextId_ = 1;
};

/** RAII span; cheap no-op when the tracer is off. */
class Span
{
  public:
    explicit Span(const char *name) : id_(Tracer::global().begin(name)) {}
    ~Span() { Tracer::global().end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::uint64_t id_;
};

} // namespace ledger

#endif // SMTFLEX_LEDGER_SPANS_H
