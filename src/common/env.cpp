#include "env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/log.h"

namespace smtflex {

std::optional<std::string>
envRaw(const char *name)
{
    if (const char *value = std::getenv(name))
        return std::string(value);
    return std::nullopt;
}

std::string
envString(const char *name, const std::string &fallback)
{
    const auto raw = envRaw(name);
    return raw ? *raw : fallback;
}

std::uint64_t
parseU64(const std::string &text, const std::string &what)
{
    if (text.empty() || text[0] == '-' ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        fatal(what, ": expected a non-negative integer, got '", text, "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE)
        fatal(what, ": value '", text, "' out of range");
    if (end == nullptr || *end != '\0')
        fatal(what, ": trailing junk in '", text, "'");
    return static_cast<std::uint64_t>(value);
}

std::uint32_t
parseU32(const std::string &text, const std::string &what)
{
    const std::uint64_t value = parseU64(text, what);
    if (value > UINT32_MAX)
        fatal(what, ": value ", value, " out of 32-bit range");
    return static_cast<std::uint32_t>(value);
}

std::uint16_t
parsePort(const std::string &text, const std::string &what)
{
    const std::uint64_t value = parseU64(text, what);
    if (value > UINT16_MAX)
        fatal(what, ": value ", value, " out of port range 0-65535");
    return static_cast<std::uint16_t>(value);
}

std::pair<std::string, std::uint16_t>
parseEndpoint(const std::string &addr, const std::string &what)
{
    const auto colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size())
        fatal(what, ": must be HOST:PORT, got '", addr, "'");
    return {addr.substr(0, colon),
            parsePort(addr.substr(colon + 1), what + " port")};
}

double
parseDouble(const std::string &text, const std::string &what)
{
    if (text.empty())
        fatal(what, ": expected a number, got an empty string");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno == ERANGE)
        fatal(what, ": value '", text, "' out of range");
    if (end == nullptr || *end != '\0')
        fatal(what, ": trailing junk in '", text, "'");
    if (!std::isfinite(value))
        fatal(what, ": value '", text, "' is not a finite number");
    return value;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const auto raw = envRaw(name);
    return raw ? parseU64(*raw, name) : fallback;
}

std::uint32_t
envU32(const char *name, std::uint32_t fallback)
{
    const auto raw = envRaw(name);
    return raw ? parseU32(*raw, name) : fallback;
}

double
envDouble(const char *name, double fallback)
{
    const auto raw = envRaw(name);
    return raw ? parseDouble(*raw, name) : fallback;
}

bool
envFlag(const char *name, bool fallback)
{
    const auto raw = envRaw(name);
    if (!raw)
        return fallback;
    std::string text = *raw;
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (text == "1" || text == "true" || text == "on" || text == "yes")
        return true;
    if (text.empty() || text == "0" || text == "false" || text == "off" ||
        text == "no")
        return false;
    fatal(name, ": expected a boolean flag, got '", *raw, "'");
}

} // namespace smtflex
