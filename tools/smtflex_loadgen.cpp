/**
 * @file
 * Load generator for `smtflex serve`: opens K concurrent connections,
 * replays a deterministic weighted request mix, and prints throughput,
 * latency percentiles and the server's cache-hit rate.
 *
 *   smtflex_loadgen --port 7333 --connections 8 --requests 100 \
 *                   --mix ping=2,run=4,sweep=1,isolated=1
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "serve/loadgen.h"
#include "tools/args.h"

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

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::vector<std::string> positional;
        const Args args(argc, argv, 1, "loadgen",
                        {"help", "host", "port", "addr", "connections",
                         "requests", "seed", "mix", "distinct", "budget",
                         "warmup", "deadline-ms", "ping-delay-ms",
                         "stats-interval", "chaos", "chaos-every",
                         "retries", "op-timeout-ms"},
                        &positional);
        if (args.has("help") || !positional.empty())
            return usage();

        // Each integer flag parses at its field's width: an out-of-range
        // value is fatal, never silently narrowed.
        serve::LoadGenOptions options;
        options.host = args.get("host", options.host);
        options.port = args.getPort("port", options.port);
        for (const std::string &addr : args.all("addr"))
            options.targets.push_back(parseEndpoint(addr, "--addr"));
        options.connections =
            args.getU32("connections", options.connections);
        options.requestsPerConnection =
            args.getU32("requests", options.requestsPerConnection);
        options.seed = args.getInt("seed", options.seed);
        options.mix = args.get("mix", options.mix);
        options.distinct = args.getU32("distinct", options.distinct);
        options.budget = args.getInt("budget", options.budget);
        options.warmup = args.getInt("warmup", options.warmup);
        options.deadlineMs = args.getInt("deadline-ms", options.deadlineMs);
        options.pingDelayMs =
            args.getInt("ping-delay-ms", options.pingDelayMs);
        options.statsIntervalMs =
            args.getInt("stats-interval", options.statsIntervalMs);
        options.chaos = args.get("chaos", options.chaos);
        options.chaosEvery = args.getU32("chaos-every", options.chaosEvery);
        // Chaos without retries would abort the whole run on the first
        // self-inflicted wound; default to a forgiving client.
        options.retry.maxRetries =
            args.getU32("retries", options.chaos.empty() ? 0 : 3);
        options.retry.opTimeoutMs =
            args.getInt("op-timeout-ms", options.retry.opTimeoutMs);
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
