/**
 * @file
 * Value types of the smtflex::telemetry metric spine.
 *
 * A metric reading is a small tagged value: the simulator's counters are
 * plain uint64_t cells, serve's counters are atomics, derived figures are
 * doubles, and a handful of exposition-only entries are booleans or
 * strings (a cache path, a draining flag). Keeping the tag explicit lets
 * the consumers (JSON stats bodies, CSV walks, Prometheus exposition)
 * render each reading exactly as the pre-telemetry hand-marshalled code
 * did — byte-identical output is part of the registry's contract.
 */

#ifndef SMTFLEX_TELEMETRY_METRIC_H
#define SMTFLEX_TELEMETRY_METRIC_H

#include <cstdint>
#include <string>

namespace smtflex {
namespace telemetry {

/** What a metric means (drives the Prometheus exposition TYPE line). */
enum class MetricKind : std::uint8_t
{
    /** Monotonically increasing count (events since construction). */
    kCounter,
    /** Point-in-time level that can go up and down (queue depth). */
    kGauge,
    /** Non-numeric annotation (a path, a flag) for exposition only. */
    kInfo,
};

/** One typed metric reading. */
class MetricValue
{
  public:
    enum class Type : std::uint8_t { kU64, kDouble, kBool, kString };

    MetricValue() = default;

    static MetricValue u64(std::uint64_t v)
    {
        MetricValue out;
        out.type_ = Type::kU64;
        out.u64_ = v;
        return out;
    }
    static MetricValue real(double v)
    {
        MetricValue out;
        out.type_ = Type::kDouble;
        out.double_ = v;
        return out;
    }
    static MetricValue boolean(bool v)
    {
        MetricValue out;
        out.type_ = Type::kBool;
        out.bool_ = v;
        return out;
    }
    static MetricValue string(std::string v)
    {
        MetricValue out;
        out.type_ = Type::kString;
        out.string_ = std::move(v);
        return out;
    }

    Type type() const { return type_; }
    bool isU64() const { return type_ == Type::kU64; }
    bool isDouble() const { return type_ == Type::kDouble; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isString() const { return type_ == Type::kString; }

    /** Typed reads; fatal() on a type mismatch (registry consumers name
     * the offending path in their own message). */
    std::uint64_t asU64() const;
    double asDouble() const;
    bool asBool() const;
    const std::string &asString() const;

    /** Numeric reading as a double (u64 widened, bool as 0/1); fatal()
     * for strings. */
    double numeric() const;

    bool operator==(const MetricValue &other) const;

  private:
    Type type_ = Type::kU64;
    std::uint64_t u64_ = 0;
    double double_ = 0.0;
    bool bool_ = false;
    std::string string_;
};

} // namespace telemetry
} // namespace smtflex

#endif // SMTFLEX_TELEMETRY_METRIC_H
