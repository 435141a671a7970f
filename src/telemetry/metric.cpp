#include "telemetry/metric.h"

#include "common/log.h"

namespace smtflex {
namespace telemetry {

namespace {

const char *
typeName(MetricValue::Type type)
{
    switch (type) {
      case MetricValue::Type::kU64:
        return "u64";
      case MetricValue::Type::kDouble:
        return "double";
      case MetricValue::Type::kBool:
        return "bool";
      case MetricValue::Type::kString:
        return "string";
    }
    return "?";
}

} // namespace

std::uint64_t
MetricValue::asU64() const
{
    if (type_ != Type::kU64)
        fatal("telemetry: value is ", typeName(type_), ", not u64");
    return u64_;
}

double
MetricValue::asDouble() const
{
    if (type_ != Type::kDouble)
        fatal("telemetry: value is ", typeName(type_), ", not double");
    return double_;
}

bool
MetricValue::asBool() const
{
    if (type_ != Type::kBool)
        fatal("telemetry: value is ", typeName(type_), ", not bool");
    return bool_;
}

const std::string &
MetricValue::asString() const
{
    if (type_ != Type::kString)
        fatal("telemetry: value is ", typeName(type_), ", not string");
    return string_;
}

double
MetricValue::numeric() const
{
    switch (type_) {
      case Type::kU64:
        return static_cast<double>(u64_);
      case Type::kDouble:
        return double_;
      case Type::kBool:
        return bool_ ? 1.0 : 0.0;
      case Type::kString:
        break;
    }
    fatal("telemetry: string value has no numeric reading");
}

bool
MetricValue::operator==(const MetricValue &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::kU64:
        return u64_ == other.u64_;
      case Type::kDouble:
        return double_ == other.double_;
      case Type::kBool:
        return bool_ == other.bool_;
      case Type::kString:
        return string_ == other.string_;
    }
    return false;
}

} // namespace telemetry
} // namespace smtflex
