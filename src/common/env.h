/**
 * @file
 * Typed access to SMTFLEX_* environment variables.
 *
 * Every subsystem that reads configuration from the environment goes
 * through these helpers instead of raw std::getenv + atoi: malformed
 * values (empty, trailing junk, out of range) are a user error and
 * fatal() with the variable name, rather than silently parsing to 0.
 */

#ifndef SMTFLEX_COMMON_ENV_H
#define SMTFLEX_COMMON_ENV_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace smtflex {

/** Raw value of @p name, or nullopt when unset. */
std::optional<std::string> envRaw(const char *name);

/**
 * Parse @p text as a non-negative integer; fatal() naming @p what on
 * malformed values (empty, negative, trailing junk, overflow). The env
 * readers below, CLI flag parsing and the serve protocol's integer fields
 * all route through this one strict parser.
 */
std::uint64_t parseU64(const std::string &text, const std::string &what);

/** Like parseU64 but range-checked to 32 bits. */
std::uint32_t parseU32(const std::string &text, const std::string &what);

/** Like parseU64 but range-checked to a TCP port (0-65535). */
std::uint16_t parsePort(const std::string &text, const std::string &what);

/** Split @p addr as HOST:PORT, the port through parsePort; fatal() naming
 * @p what when the host or the port is missing. */
std::pair<std::string, std::uint16_t> parseEndpoint(const std::string &addr,
                                                    const std::string &what);

/** Parse @p text as a finite floating-point value; fatal() naming
 * @p what on malformed, out-of-range or non-finite (nan, inf) values. */
double parseDouble(const std::string &text, const std::string &what);

/** String value of @p name, or @p fallback when unset. */
std::string envString(const char *name, const std::string &fallback);

/** Unsigned integer value of @p name; fatal() on malformed values
 * (non-numeric, negative, trailing junk, overflow). */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** Like envU64 but range-checked to 32 bits. */
std::uint32_t envU32(const char *name, std::uint32_t fallback);

/** Floating-point value of @p name; fatal() on malformed values. */
double envDouble(const char *name, double fallback);

/**
 * Boolean flag: 1/true/on/yes enable, 0/false/off/no and the empty string
 * disable; anything else is fatal(). Matching is case-insensitive.
 */
bool envFlag(const char *name, bool fallback);

} // namespace smtflex

#endif // SMTFLEX_COMMON_ENV_H
