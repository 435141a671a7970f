/**
 * @file
 * Load generator for `smtflex serve`: opens K concurrent connections,
 * replays a deterministic weighted request mix, and prints throughput,
 * latency percentiles and the server's cache-hit rate.
 *
 *   smtflex_loadgen --port 7333 --connections 8 --requests 100 \
 *                   --mix ping=2,run=4,sweep=1,isolated=1
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "serve/loadgen.h"

using namespace smtflex;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: smtflex_loadgen [options]\n"
        "  --host A          server address (default 127.0.0.1)\n"
        "  --port N          server port (default 7333)\n"
        "  --addr HOST:PORT  target endpoint; repeat to spread the\n"
        "                    connections round-robin over a fleet\n"
        "                    (overrides --host/--port)\n"
        "  --connections N   concurrent connections (default 8)\n"
        "  --requests N      requests per connection (default 50)\n"
        "  --seed N          request-sequence seed (default 1)\n"
        "  --mix SPEC        op=weight list over ping, stats, metrics,\n"
        "                    run, sweep, isolated and schedule (default\n"
        "                    ping=2,run=4,sweep=1,isolated=1)\n"
        "  --distinct N      distinct simulation variants (default 6)\n"
        "  --budget N        instructions per run request (default 2000)\n"
        "  --warmup N        warmup instructions (default 500)\n"
        "  --deadline-ms N   deadline on simulation requests (default 0)\n"
        "  --ping-delay-ms N queue pings for N ms instead of inline\n"
        "  --stats-interval N  print a server stats line every N ms while\n"
        "                    the load runs (default 0 = off)\n"
        "  --chaos MODE      misbehave between requests: disconnect,\n"
        "                    partial-frame or garbage (default off)\n"
        "  --chaos-every N   one chaos act per ~N requests (default 3)\n"
        "  --retries N       reconnect-and-resend attempts per request\n"
        "                    (default 0 = fail fast; chaos implies 3)\n"
        "  --op-timeout-ms N bound one send/receive (default 0 = forever)\n");
    return 2;
}

/** Every flag usage() documents (--help aside). */
constexpr std::string_view kFlags[] = {
    "host", "port", "addr", "connections", "requests", "seed", "mix",
    "distinct", "budget", "warmup", "deadline-ms", "ping-delay-ms",
    "stats-interval", "chaos", "chaos-every", "retries", "op-timeout-ms"};

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::map<std::string, std::string> flags;
        std::vector<std::string> addrs; // --addr accumulates, unlike the rest
        for (int i = 1; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                return usage();
            key = key.substr(2);
            if (key == "help")
                return usage();
            if (std::find(std::begin(kFlags), std::end(kFlags), key) ==
                std::end(kFlags))
                fatal("loadgen: unknown flag '--", key, "'");
            std::string value;
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                value = argv[++i];
            if (key == "addr")
                addrs.push_back(value);
            else
                flags[key] = value;
        }

        serve::LoadGenOptions options;
        const auto str = [&](const char *key, const std::string &fallback) {
            const auto it = flags.find(key);
            return it == flags.end() ? fallback : it->second;
        };
        // Each integer flag parses at its field's width: an out-of-range
        // value is fatal, never silently narrowed.
        const auto parsed = [&](const char *key, auto fallback, auto parse) {
            const auto it = flags.find(key);
            return it == flags.end()
                ? fallback
                : parse(it->second, std::string("--") + key);
        };
        const auto num = [&](const char *key, std::uint64_t fallback) {
            return parsed(key, fallback, parseU64);
        };
        const auto num32 = [&](const char *key, std::uint32_t fallback) {
            return parsed(key, fallback, parseU32);
        };
        options.host = str("host", options.host);
        options.port = parsed("port", options.port, parsePort);
        for (const std::string &addr : addrs)
            options.targets.push_back(parseEndpoint(addr, "--addr"));
        options.connections = num32("connections", options.connections);
        options.requestsPerConnection =
            num32("requests", options.requestsPerConnection);
        options.seed = num("seed", options.seed);
        options.mix = str("mix", options.mix);
        options.distinct = num32("distinct", options.distinct);
        options.budget = num("budget", options.budget);
        options.warmup = num("warmup", options.warmup);
        options.deadlineMs = num("deadline-ms", options.deadlineMs);
        options.pingDelayMs = num("ping-delay-ms", options.pingDelayMs);
        options.statsIntervalMs =
            num("stats-interval", options.statsIntervalMs);
        options.chaos = str("chaos", options.chaos);
        options.chaosEvery = num32("chaos-every", options.chaosEvery);
        // Chaos without retries would abort the whole run on the first
        // self-inflicted wound; default to a forgiving client.
        options.retry.maxRetries =
            num32("retries", options.chaos.empty() ? 0 : 3);
        options.retry.opTimeoutMs =
            num("op-timeout-ms", options.retry.opTimeoutMs);
        if (options.connections == 0 || options.requestsPerConnection == 0)
            fatal("loadgen: --connections and --requests must be > 0");

        const serve::LoadGenReport report = serve::runLoadGen(options);
        std::fputs(report.summary().c_str(), stdout);
        return report.mismatches || report.otherErrors ? 1 : 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "smtflex_loadgen: %s\n", e.what());
        return 1;
    }
}
