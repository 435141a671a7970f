/**
 * @file
 * The smtflex command-line front end: run simulations, sweeps and
 * characterisations without writing C++, or serve them over TCP.
 *
 *   smtflex designs
 *   smtflex benchmarks
 *   smtflex isolated <bench> [...] [--cache FILE]
 *   smtflex run    --design 4B --workload mcf,hmmer,tonto [--no-smt]
 *                  [--budget N] [--warmup N] [--seed N] [--bw GBps]
 *                  [--prefetch] [--naive-sched] [--cache FILE]
 *   smtflex sweep  --design 4B [--bench tonto | --het] [--no-smt]
 *   smtflex schedule --design 3B5s --benchmarks mcf,hmmer,lbm,sjeng
 *                  [--policy greedy|pairing|hysteresis|measured] [--figure]
 *   smtflex parsec --app ferret --design 20s --threads 16 [--throttle]
 *   smtflex serve  --port 7333 --jobs 8 [--queue N] [--cache FILE]
 *   smtflex coordinator --port 7333 --backend H1:P1 --backend H2:P2
 *   smtflex stats  --addr HOST:PORT [--metrics]
 *
 * The run/sweep/isolated commands render through the same
 * serve::commands core the network server uses, so `smtflex serve`
 * responses are byte-identical to this CLI's output.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "dist/coordinator.h"
#include "exec/thread_pool.h"
#include "serve/client.h"
#include "report/sim_report.h"
#include "serve/commands.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sim/chip_sim.h"
#include "sim/power_summary.h"
#include "study/design_space.h"
#include "study/online_study.h"
#include "study/study_engine.h"
#include "tools/args.h"
#include "trace/spec_profiles.h"
#include "trace/trace_io.h"
#include "workload/parsec.h"
#include "workload/parsec_runner.h"

using namespace smtflex;

namespace {

/** StudyOptions from the environment plus the --cache override. */
StudyOptions
studyOptionsFromArgs(const Args &args)
{
    StudyOptions opts = StudyOptions::fromEnv();
    if (args.has("cache"))
        opts.cachePath = args.get("cache");
    return opts;
}

/** The study options of `sweep` and `schedule`, whose records are keyed
 * by the engine's bandwidth: --bw selects it. */
StudyOptions
studyOptionsAtBandwidth(const Args &args)
{
    StudyOptions opts = studyOptionsFromArgs(args);
    opts.bandwidthGBps = args.getDouble("bw", opts.bandwidthGBps);
    return opts;
}

/** The serve options `serve` and `coordinator` share. */
serve::ServerOptions
serverOptionsFromArgs(const Args &args)
{
    serve::ServerOptions opts;
    opts.host = args.get("host", opts.host);
    opts.port = args.getPort("port", opts.port);
    opts.queueCapacity = args.getInt("queue", opts.queueCapacity);
    opts.batchMax = args.getInt("batch", opts.batchMax);
    opts.maxFrame = args.getInt("max-frame", opts.maxFrame);
    opts.drainTimeoutMs = args.getInt("drain-timeout", opts.drainTimeoutMs);
    opts.study = studyOptionsFromArgs(args);
    return opts;
}

ChipConfig
designFromArgs(const Args &args)
{
    return serve::buildDesign(args.get("design", "4B"), args.has("no-smt"),
                              args.has("bw"), args.getDouble("bw", 8.0),
                              args.has("prefetch"));
}

/**
 * With --addr HOST:PORT, execute the simulation op on a running serve
 * (or coordinator) endpoint instead of locally and print the served
 * text — which is byte-identical to the local rendering. Returns false
 * when --addr is absent so the caller runs the local path.
 */
bool
runRemotely(const Args &args, const serve::Request &request)
{
    if (!args.has("addr"))
        return false;
    const auto [host, port] = parseEndpoint(args.get("addr"), "--addr");
    serve::Client client;
    client.connect(host, port);
    const serve::Json reply = client.call(request.toJson());
    if (!reply.at("ok").asBool())
        fatal("server error: ", reply.at("error").asString(), ": ",
              reply.at("message").asString());
    std::fputs(reply.at("output").asString().c_str(), stdout);
    return true;
}

int
cmdDesigns()
{
    std::printf("%-8s %6s %9s %9s  core mix\n", "name", "cores",
                "contexts", "SMT/core");
    auto show = [](const ChipConfig &cfg) {
        int b = 0, m = 0, s = 0;
        for (const auto &core : cfg.cores) {
            b += core.type == CoreType::kBig;
            m += core.type == CoreType::kMedium;
            s += core.type == CoreType::kSmall;
        }
        std::ostringstream mix;
        if (b)
            mix << b << " big ";
        if (m)
            mix << m << " medium ";
        if (s)
            mix << s << " small";
        std::printf("%-8s %6u %9u %9s  %s\n", cfg.name.c_str(),
                    cfg.numCores(), cfg.totalContexts(), "varies",
                    mix.str().c_str());
    };
    for (const auto &name : paperDesignNames())
        show(paperDesign(name));
    for (const auto &name : alternativeDesignNames())
        show(alternativeDesign(name));
    return 0;
}

int
cmdBenchmarks()
{
    std::printf("single-threaded (SPEC-like), for `run`/`sweep`/`isolated`:"
                "\n ");
    for (const auto &name : specBenchmarkNames())
        std::printf(" %s", name.c_str());
    std::printf("\n\nmulti-threaded (PARSEC-like), for `parsec`:\n ");
    for (const auto &name : parsecBenchmarkNames())
        std::printf(" %s", name.c_str());
    std::printf("\n");
    return 0;
}

int
cmdIsolated(int argc, char **argv)
{
    serve::IsolatedRequest req;
    int firstFlag = argc;
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0) {
            firstFlag = i;
            break;
        }
        req.benches.push_back(argv[i]);
    }
    const Args args(argc, argv, firstFlag, "isolated", {"cache", "addr"});
    serve::Request wire;
    wire.op = serve::Op::kIsolated;
    wire.isolated = req;
    if (runRemotely(args, wire))
        return 0;
    StudyEngine eng(studyOptionsFromArgs(args));
    std::fputs(serve::isolatedText(eng, req).c_str(), stdout);
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    const Args args(argc, argv, 2, "run",
                    {"design", "workload", "budget", "warmup", "seed",
                     "no-smt", "prefetch", "naive-sched", "bw", "report",
                     "cache", "addr"});
    serve::RunRequest req;
    req.design = args.get("design", "4B");
    const std::string workload_arg = args.get("workload", "");
    std::istringstream ss(workload_arg);
    std::string token;
    while (std::getline(ss, token, ','))
        req.workload.push_back(token);
    req.budget = args.getInt("budget", 12'000);
    req.warmup = args.getInt("warmup", 3'000);
    req.seed = args.getInt("seed", 42);
    req.noSmt = args.has("no-smt");
    req.prefetch = args.has("prefetch");
    req.naiveSched = args.has("naive-sched");
    req.hasBw = args.has("bw");
    req.bw = args.getDouble("bw", 8.0);
    req.report = args.get("report", "");

    serve::Request wire;
    wire.op = serve::Op::kRun;
    wire.run = req;
    if (runRemotely(args, wire))
        return 0;
    StudyEngine eng(studyOptionsFromArgs(args));
    std::fputs(serve::runText(eng, req).c_str(), stdout);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    const Args args(argc, argv, 2, "sweep",
                    {"design", "bench", "het", "no-smt", "bw", "cache",
                     "addr"});
    serve::SweepRequest req;
    req.design = args.get("design", "4B");
    req.bench = args.get("bench", "");
    req.het = args.has("het");
    req.noSmt = args.has("no-smt");
    req.hasBw = args.has("bw");
    req.bw = args.getDouble("bw", 8.0);

    serve::Request wire;
    wire.op = serve::Op::kSweep;
    wire.sweep = req;
    if (runRemotely(args, wire))
        return 0;
    StudyEngine eng(studyOptionsAtBandwidth(args));
    std::fputs(serve::sweepText(eng, req).c_str(), stdout);
    return 0;
}

int
cmdSchedule(int argc, char **argv)
{
    const Args args(argc, argv, 2, "schedule",
                    {"figure", "design", "benchmarks", "policy", "no-smt",
                     "bw", "cache", "addr"});
    if (args.has("figure")) {
        // The DESIGN.md §14 figure: online policies vs the naive and
        // offline-oracle baselines over the reference mixes.
        StudyEngine eng(studyOptionsAtBandwidth(args));
        std::fputs(onlineStudyText(eng).c_str(), stdout);
        return 0;
    }

    serve::ScheduleRequest req;
    req.design = args.get("design", "4B");
    const std::string benchmarks_arg = args.get("benchmarks", "");
    std::istringstream ss(benchmarks_arg);
    std::string token;
    while (std::getline(ss, token, ','))
        req.benchmarks.push_back(token);
    req.policy = args.get("policy", "pairing");
    req.noSmt = args.has("no-smt");
    req.hasBw = args.has("bw");
    req.bw = args.getDouble("bw", 8.0);

    serve::Request wire;
    wire.op = serve::Op::kSchedule;
    wire.schedule = req;
    if (runRemotely(args, wire))
        return 0;
    StudyEngine eng(studyOptionsAtBandwidth(args));
    std::fputs(serve::scheduleText(eng, req).c_str(), stdout);
    return 0;
}

int
cmdParsec(int argc, char **argv)
{
    const Args args(argc, argv, 2, "parsec",
                    {"design", "no-smt", "bw", "prefetch", "app", "threads",
                     "seed", "throttle"});
    const ChipConfig cfg = designFromArgs(args);
    const std::string app_name = args.get("app", "blackscholes");
    const std::uint32_t threads = args.getU32("threads", 8);
    const auto seed = args.getInt("seed", 42);

    ParsecRunner runner(cfg, parsecProfile(app_name), threads, seed,
                        args.has("throttle"));
    const ParsecRunResult r = runner.run();
    if (!r.completed)
        fatal("run hit the cycle limit");
    std::printf("%s on %s with %u threads%s\n", app_name.c_str(),
                cfg.name.c_str(), threads,
                args.has("throttle") ? " (critical-section throttling)"
                                     : "");
    std::printf("ROI    %12llu cycles\n",
                static_cast<unsigned long long>(r.roiCycles()));
    std::printf("total  %12llu cycles\n",
                static_cast<unsigned long long>(r.totalCycles));
    std::printf("\nROI active-thread distribution:\n");
    for (std::size_t k = 0; k < r.roiActiveThreadFractions.size(); ++k) {
        if (r.roiActiveThreadFractions[k] >= 0.005)
            std::printf("  %2zu: %5.1f%%\n", k,
                        100.0 * r.roiActiveThreadFractions[k]);
    }
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    const Args args(argc, argv, 2, "trace",
                    {"bench", "out", "count", "seed", "thread"});
    const std::string bench = args.get("bench", "");
    const std::string out_path = args.get("out", "");
    if (bench.empty() || out_path.empty())
        fatal("trace: --bench and --out required");
    const auto count = args.getInt("count", 100'000);
    const auto seed = args.getInt("seed", 42);
    const std::uint32_t tid = args.getU32("thread", 0);

    TraceGenerator gen(specProfile(bench), seed, tid,
                       AddressSpace::forThread(tid));
    std::ofstream out(out_path);
    if (!out)
        fatal("trace: cannot write ", out_path);
    writeTrace(out, gen, count);
    std::printf("wrote %llu ops of %s (seed %llu, thread %u) to %s\n",
                static_cast<unsigned long long>(count), bench.c_str(),
                static_cast<unsigned long long>(seed), tid,
                out_path.c_str());
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    const Args args(argc, argv, 2, "serve",
                    {"jobs", "host", "port", "queue", "batch", "max-frame",
                     "drain-timeout", "cache"});
    if (args.has("jobs"))
        exec::ThreadPool::configureGlobal(args.getU32("jobs", 0));
    const serve::ServerOptions opts = serverOptionsFromArgs(args);

    serve::Server server(opts);
    server.bind();
    serve::Server::installSignalHandlers(&server);
    std::printf("smtflex serve: listening on %s:%u (jobs %u, cache %s)\n",
                opts.host.c_str(), server.port(),
                exec::ThreadPool::global().concurrency(),
                opts.study.cachePath.empty() ? "(in-memory)"
                                             : opts.study.cachePath.c_str());
    std::fflush(stdout);
    server.run();
    const auto &stats = server.stats();
    std::printf("smtflex serve: drained; %llu requests, %llu executed, "
                "%llu cache hits, %llu coalesced\n",
                static_cast<unsigned long long>(
                    stats.requestsReceived.load()),
                static_cast<unsigned long long>(stats.executed.load()),
                static_cast<unsigned long long>(stats.cacheHits.load()),
                static_cast<unsigned long long>(stats.coalesced.load()));
    return 0;
}

/**
 * The distributed sweep fabric's front end: a server speaking the same
 * wire protocol as `serve`, sharding sweeps across --backend fleet
 * members and federating their result caches. With no --backend it is
 * an ordinary single-node server.
 */
int
cmdCoordinator(int argc, char **argv)
{
    const Args args(
        argc, argv, 2, "coordinator",
        {"jobs", "host", "port", "queue", "batch", "max-frame",
         "drain-timeout", "cache", "backend", "chunk-rows", "steal-after-ms",
         "max-dispatch", "quarantine-after", "probe-timeout-ms",
         "op-timeout-ms", "connect-timeout-ms"});
    if (args.has("jobs"))
        exec::ThreadPool::configureGlobal(args.getU32("jobs", 0));

    dist::CoordinatorOptions opts;
    opts.server = serverOptionsFromArgs(args);
    for (const std::string &addr : args.all("backend")) {
        const auto [host, port] = parseEndpoint(addr, "--backend");
        opts.backends.push_back({host, port});
    }
    opts.chunkRows = args.getInt("chunk-rows", opts.chunkRows);
    opts.stealAfterMs = args.getInt("steal-after-ms", opts.stealAfterMs);
    opts.maxDispatch = args.getU32("max-dispatch", opts.maxDispatch);
    opts.pool.quarantineAfter =
        args.getU32("quarantine-after", opts.pool.quarantineAfter);
    opts.pool.probeTimeoutMs =
        args.getInt("probe-timeout-ms", opts.pool.probeTimeoutMs);
    opts.pool.opTimeoutMs =
        args.getInt("op-timeout-ms", opts.pool.opTimeoutMs);
    opts.pool.connectTimeoutMs =
        args.getInt("connect-timeout-ms", opts.pool.connectTimeoutMs);

    dist::Coordinator coordinator(opts);
    coordinator.bind();
    serve::Server::installSignalHandlers(&coordinator.server());
    std::printf("smtflex coordinator: listening on %s:%u, %zu backend(s), "
                "cache %s\n",
                opts.server.host.c_str(), coordinator.port(),
                opts.backends.size(),
                opts.server.study.cachePath.empty()
                    ? "(in-memory)"
                    : opts.server.study.cachePath.c_str());
    std::fflush(stdout);
    coordinator.run();
    const auto &stats = coordinator.stats();
    std::printf("smtflex coordinator: drained; %llu sweeps, %llu chunks "
                "dispatched (%llu stolen, %llu requeued), %llu forwarded "
                "(%llu failovers)\n",
                static_cast<unsigned long long>(stats.sweeps.load()),
                static_cast<unsigned long long>(
                    stats.chunksDispatched.load()),
                static_cast<unsigned long long>(stats.chunksStolen.load()),
                static_cast<unsigned long long>(
                    stats.chunksRequeued.load()),
                static_cast<unsigned long long>(stats.forwarded.load()),
                static_cast<unsigned long long>(
                    stats.forwardFailovers.load()));
    return 0;
}

/**
 * Query a running `smtflex serve` instance without hand-writing frames:
 * prints the stats op's counters as sorted `key value` lines, or with
 * --metrics the full registry in Prometheus exposition format.
 */
int
cmdStats(int argc, char **argv)
{
    const Args args(argc, argv, 2, "stats", {"addr", "metrics"});
    const std::string addr = args.get("addr", "");
    if (addr.empty())
        fatal("stats: --addr HOST:PORT required");
    const auto [host, port] = parseEndpoint(addr, "--addr");

    serve::Client client;
    client.connect(host, port);
    serve::Json req = serve::Json::object();
    req.set("op",
            serve::Json::string(args.has("metrics") ? "metrics" : "stats"));
    const serve::Json reply = client.call(req);
    if (!reply.at("ok").asBool())
        fatal("server error: ", reply.at("error").asString());

    if (args.has("metrics")) {
        std::fputs(reply.at("exposition").asString().c_str(), stdout);
        return 0;
    }
    for (const auto &[key, value] : reply.at("stats").members())
        std::printf("%-20s %s\n", key.c_str(), value.dump().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: smtflex <command> [options]\n"
        "  designs                       list the multi-core designs\n"
        "  benchmarks                    list the workload models\n"
        "  isolated [bench...] [--cache FILE] [--addr HOST:PORT]\n"
        "                                isolated IPC per core type\n"
        "  run    --design D --workload a,b,c [--no-smt] [--budget N]\n"
        "         [--warmup N] [--seed N] [--bw G] [--prefetch]\n"
        "         [--naive-sched] [--report text|csv-threads|csv-cores]\n"
        "         [--cache FILE] [--addr HOST:PORT]\n"
        "  sweep  --design D [--bench b | --het] [--no-smt] [--bw G]\n"
        "         [--addr HOST:PORT]    (--addr: execute on a running\n"
        "                                serve/coordinator endpoint)\n"
        "  schedule --design D --benchmarks a,b,c [--policy P] [--no-smt]\n"
        "         [--bw G] [--cache FILE] [--addr HOST:PORT]\n"
        "                                online thread-to-core placement\n"
        "                                (policies: greedy, pairing,\n"
        "                                hysteresis, measured); --figure\n"
        "                                renders the online-vs-oracle\n"
        "                                comparison\n"
        "  parsec --app A --design D --threads N [--throttle] [--no-smt]\n"
        "  trace  --bench b --out file [--count N] [--seed N]\n"
        "  serve  [--port N] [--host A] [--jobs N] [--queue N]\n"
        "         [--batch N] [--max-frame N] [--drain-timeout MS]\n"
        "         [--cache FILE]\n"
        "  coordinator [--backend HOST:PORT ...] [serve options]\n"
        "         [--chunk-rows N] [--steal-after-ms N] [--max-dispatch N]\n"
        "         [--quarantine-after N] [--probe-timeout-ms N]\n"
        "         [--op-timeout-ms N] [--connect-timeout-ms N]\n"
        "                                serve the same protocol, sharding\n"
        "                                sweeps across a backend fleet\n"
        "  stats  --addr HOST:PORT [--metrics]\n"
        "                                query a running server's counters\n"
        "                                (--metrics: Prometheus exposition)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "designs")
            return cmdDesigns();
        if (cmd == "benchmarks")
            return cmdBenchmarks();
        if (cmd == "isolated")
            return cmdIsolated(argc, argv);
        if (cmd == "run")
            return cmdRun(argc, argv);
        if (cmd == "sweep")
            return cmdSweep(argc, argv);
        if (cmd == "schedule")
            return cmdSchedule(argc, argv);
        if (cmd == "parsec")
            return cmdParsec(argc, argv);
        if (cmd == "trace")
            return cmdTrace(argc, argv);
        if (cmd == "serve")
            return cmdServe(argc, argv);
        if (cmd == "coordinator")
            return cmdCoordinator(argc, argv);
        if (cmd == "stats")
            return cmdStats(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "smtflex: %s\n", e.what());
        return 1;
    }
    return usage();
}
