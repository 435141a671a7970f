/**
 * @file
 * The flag parser of the command-line tools (`smtflex`, `smtflex_loadgen`):
 * `--key value` and boolean `--key`, with values parsed strictly through
 * common/env.h at their field's width.
 */

#ifndef SMTFLEX_TOOLS_ARGS_H
#define SMTFLEX_TOOLS_ARGS_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/log.h"

namespace smtflex {

/** The flags of one command. Command @p cmd reads exactly the flags in
 * @p known; any other flag is fatal. So is an argument that is neither a
 * flag nor a flag's value, unless @p positional collects such arguments. */
class Args
{
  public:
    Args(int argc, char **argv, int first, const char *cmd,
         std::initializer_list<std::string_view> known,
         std::vector<std::string> *positional = nullptr)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                if (!positional)
                    fatal("unexpected argument '", key, "'");
                positional->push_back(std::move(key));
                continue;
            }
            key = key.substr(2);
            if (std::find(known.begin(), known.end(), key) == known.end())
                fatal(cmd, ": unknown flag '--", key, "'");
            std::string value;
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
                value = argv[i + 1];
                ++i;
            }
            values_[key] = value;
            ordered_.emplace_back(std::move(key), std::move(value));
        }
    }

    bool has(const std::string &key) const { return values_.count(key); }

    /** Every value of a repeatable flag, in command-line order
     * (`--backend a --backend b`). */
    std::vector<std::string> all(const std::string &key) const
    {
        std::vector<std::string> out;
        for (const auto &[k, v] : ordered_) {
            if (k == key)
                out.push_back(v);
        }
        return out;
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /** Strictly parsed integer flag: `--seed abc` is fatal, not 0, and
     * so is a value out of the flag's range. */
    std::uint64_t
    getInt(const std::string &key, std::uint64_t fallback) const
    {
        return parsed(key, fallback, parseU64);
    }

    std::uint32_t
    getU32(const std::string &key, std::uint32_t fallback) const
    {
        return parsed(key, fallback, parseU32);
    }

    std::uint16_t
    getPort(const std::string &key, std::uint16_t fallback) const
    {
        return parsed(key, fallback, parsePort);
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        return parsed(key, fallback, parseDouble);
    }

  private:
    template <typename T>
    T
    parsed(const std::string &key, T fallback,
           T (*parse)(const std::string &, const std::string &)) const
    {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : parse(it->second, "--" + key);
    }

    std::map<std::string, std::string> values_;
    std::vector<std::pair<std::string, std::string>> ordered_;
};

} // namespace smtflex

#endif // SMTFLEX_TOOLS_ARGS_H
