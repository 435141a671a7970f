#include "telemetry/registry.h"

#include <sstream>

#include "common/log.h"

namespace smtflex {
namespace telemetry {

// ---------------------------------------------------------------- Snapshot

void
Snapshot::set(std::string path, MetricValue value)
{
    values_[std::move(path)] = std::move(value);
}

bool
Snapshot::contains(const std::string &path) const
{
    return values_.count(path) != 0;
}

const MetricValue &
Snapshot::at(const std::string &path) const
{
    const auto it = values_.find(path);
    if (it == values_.end())
        fatal("telemetry: snapshot has no metric '", path, "'");
    return it->second;
}

std::uint64_t
Snapshot::u64(const std::string &path) const
{
    return at(path).asU64();
}

// ------------------------------------------------------------ path checks

void
validateMetricPath(const std::string &path)
{
    if (path.empty())
        fatal("telemetry: empty metric path");
    bool segment_empty = true;
    for (const char c : path) {
        if (c == '.') {
            if (segment_empty)
                fatal("telemetry: empty segment in metric path '", path, "'");
            segment_empty = true;
            continue;
        }
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '_';
        if (!ok)
            fatal("telemetry: bad character '", std::string(1, c),
                  "' in metric path '", path, "'");
        segment_empty = false;
    }
    if (segment_empty)
        fatal("telemetry: empty segment in metric path '", path, "'");
}

// ---------------------------------------------------------- MetricRegistry

MetricValue
MetricRegistry::Metric::read() const
{
    if (cell != nullptr)
        return MetricValue::u64(*cell);
    if (atomicCell != nullptr)
        return MetricValue::u64(
            atomicCell->load(std::memory_order_relaxed));
    return fn();
}

void
MetricRegistry::add(const std::string &path, Metric metric)
{
    validateMetricPath(path);
    if (!metrics_.emplace(path, std::move(metric)).second)
        fatal("telemetry: metric '", path, "' registered twice");
}

void
MetricRegistry::counter(const std::string &path, const std::uint64_t *cell)
{
    Metric m;
    m.kind = MetricKind::kCounter;
    m.cell = cell;
    add(path, std::move(m));
}

void
MetricRegistry::counter(const std::string &path,
                        const std::atomic<std::uint64_t> *cell)
{
    Metric m;
    m.kind = MetricKind::kCounter;
    m.atomicCell = cell;
    add(path, std::move(m));
}

void
MetricRegistry::gauge(const std::string &path,
                      std::function<std::uint64_t()> fn)
{
    Metric m;
    m.kind = MetricKind::kGauge;
    m.fn = [f = std::move(fn)]() { return MetricValue::u64(f()); };
    add(path, std::move(m));
}

void
MetricRegistry::gaugeReal(const std::string &path, std::function<double()> fn)
{
    Metric m;
    m.kind = MetricKind::kGauge;
    m.fn = [f = std::move(fn)]() { return MetricValue::real(f()); };
    add(path, std::move(m));
}

void
MetricRegistry::gaugeBool(const std::string &path, std::function<bool()> fn)
{
    Metric m;
    m.kind = MetricKind::kGauge;
    m.fn = [f = std::move(fn)]() { return MetricValue::boolean(f()); };
    add(path, std::move(m));
}

void
MetricRegistry::info(const std::string &path, std::function<std::string()> fn)
{
    Metric m;
    m.kind = MetricKind::kInfo;
    m.fn = [f = std::move(fn)]() { return MetricValue::string(f()); };
    add(path, std::move(m));
}

bool
MetricRegistry::contains(const std::string &path) const
{
    return metrics_.count(path) != 0;
}

MetricValue
MetricRegistry::read(const std::string &path) const
{
    const auto it = metrics_.find(path);
    if (it == metrics_.end())
        fatal("telemetry: no metric '", path, "'");
    return it->second.read();
}

void
MetricRegistry::forEach(
    const std::function<void(const std::string &, MetricKind,
                             const MetricValue &)> &visit) const
{
    for (const auto &[path, metric] : metrics_) {
        const MetricValue value = metric.read();
        visit(path, metric.kind, value);
    }
}

void
MetricRegistry::forEachInSubtree(
    const std::string &prefix,
    const std::function<void(const std::string &, MetricKind,
                             const MetricValue &)> &visit) const
{
    const std::string dotted = prefix + ".";
    for (auto it = metrics_.lower_bound(dotted); it != metrics_.end(); ++it) {
        if (it->first.compare(0, dotted.size(), dotted) != 0)
            break;
        const MetricValue value = it->second.read();
        visit(it->first.substr(dotted.size()), it->second.kind, value);
    }
}

Snapshot
MetricRegistry::snapshot() const
{
    Snapshot out;
    for (const auto &[path, metric] : metrics_)
        out.set(path, metric.read());
    return out;
}

namespace {

std::string
expositionName(const std::string &prefix, const std::string &path)
{
    std::string out = prefix;
    out.push_back('_');
    for (const char c : path)
        out.push_back(c == '.' ? '_' : c);
    return out;
}

/** Prometheus label values escape backslash, double quote and newline. */
std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

void
writeNumber(std::ostringstream &os, const MetricValue &value)
{
    if (value.isU64()) {
        os << value.asU64();
        return;
    }
    os << value.numeric();
}

} // namespace

std::string
MetricRegistry::exposition(const std::string &name_prefix) const
{
    std::ostringstream os;
    forEach([&](const std::string &path, MetricKind kind,
                const MetricValue &value) {
        const std::string name = expositionName(name_prefix, path);
        if (value.isString()) {
            os << "# TYPE " << name << "_info gauge\n";
            os << name << "_info{value=\""
               << escapeLabelValue(value.asString()) << "\"} 1\n";
            return;
        }
        os << "# TYPE " << name << ' '
           << (kind == MetricKind::kCounter ? "counter" : "gauge") << '\n';
        os << name << ' ';
        if (value.isBool())
            os << (value.asBool() ? 1 : 0);
        else
            writeNumber(os, value);
        os << '\n';
    });
    return os.str();
}

} // namespace telemetry
} // namespace smtflex
