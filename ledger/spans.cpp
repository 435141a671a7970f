#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace ledger {

namespace {

thread_local std::vector<std::uint64_t> openStack;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t number = next.fetch_add(1);
    return number;
}

/** Length of the union of @p intervals clipped to [lo, hi). */
double
coveredLength(std::vector<std::pair<double, double>> intervals, double lo,
              double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::begin(const char *name)
{
    if (!enabled())
        return 0;
    SpanRecord span;
    span.name = name;
    span.thread = threadNumber();
    span.parent = openStack.empty() ? 0 : openStack.back();
    span.start = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = nextId_++;
    span.id = id;
    openStack.push_back(id);
    open_.emplace(id, std::move(span));
    return id;
}

void
Tracer::end(std::uint64_t id)
{
    if (id == 0)
        return;
    const double end = nowSeconds();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.end = end;
    closed_.push_back(std::move(it->second));
    open_.erase(it);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    const std::vector<SpanRecord> all = spans();
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
    for (const SpanRecord &s : all) {
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    }
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : all) {
        const double duration = s.end - s.start;
        double covered = 0.0;
        if (const auto it = children.find(s.id); it != children.end())
            covered = coveredLength(it->second, s.start, s.end);
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalSeconds += duration;
        t.selfSeconds += duration - covered;
    }
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write trace file " + path);
    const std::vector<SpanRecord> all = spans();
    double origin = all.empty() ? 0.0 : all.front().start;
    for (const SpanRecord &s : all)
        origin = std::min(origin, s.start);
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::fprintf(f,
                     "  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                     "\"thread\": %u, \"start_us\": %.3f, \"dur_us\": "
                     "%.3f}%s\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     s.name.c_str(), s.thread, (s.start - origin) * 1e6,
                     (s.end - s.start) * 1e6,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"totals\": {\n");
    const auto sums = totals();
    std::size_t k = 0;
    for (const auto &[name, t] : sums) {
        std::fprintf(f,
                     "  \"%s\": {\"count\": %llu, \"total_s\": %.6f, "
                     "\"self_s\": %.6f}%s\n",
                     name.c_str(), static_cast<unsigned long long>(t.count),
                     t.totalSeconds, t.selfSeconds,
                     ++k < sums.size() ? "," : "");
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
}

} // namespace ledger
