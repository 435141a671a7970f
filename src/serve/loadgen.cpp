#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/env.h"
#include "common/log.h"
#include "common/rng.h"
#include "online/online_policy.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "trace/spec_profiles.h"

namespace smtflex {
namespace serve {

namespace {

const std::vector<std::string> &
designPool()
{
    static const std::vector<std::string> pool = {"4B", "2B4m", "8m"};
    return pool;
}

/** Weighted op names expanded from the mix spec ("run=4,ping=2"). */
std::vector<std::string>
expandMix(const std::string &mix)
{
    std::vector<std::string> expanded;
    std::istringstream ss(mix);
    std::string token;
    while (std::getline(ss, token, ',')) {
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            fatal("loadgen: mix entry '", token, "' is not op=weight");
        const std::string op = token.substr(0, eq);
        if (op != "ping" && op != "stats" && op != "metrics" &&
            op != "run" && op != "sweep" && op != "isolated" &&
            op != "schedule")
            fatal("loadgen: unknown op '", op, "' in mix");
        const std::uint64_t weight =
            parseU64(token.substr(eq + 1), "mix weight for '" + op + "'");
        for (std::uint64_t i = 0; i < weight; ++i)
            expanded.push_back(op);
    }
    if (expanded.empty())
        fatal("loadgen: empty request mix '", mix, "'");
    return expanded;
}

enum class ChaosMode { kNone, kDisconnect, kPartialFrame, kGarbage };

ChaosMode
chaosModeFromName(const std::string &name)
{
    if (name.empty())
        return ChaosMode::kNone;
    if (name == "disconnect")
        return ChaosMode::kDisconnect;
    if (name == "partial-frame")
        return ChaosMode::kPartialFrame;
    if (name == "garbage")
        return ChaosMode::kGarbage;
    fatal("loadgen: unknown chaos mode '", name,
          "' (disconnect, partial-frame, garbage)");
}

/**
 * One chaos act on @p client, then a reconnect so the connection is
 * usable again. The act itself may race the server closing us first —
 * every failure path just feeds the reconnect.
 */
void
performChaos(Client &client, ChaosMode mode, Rng &rng)
{
    try {
        switch (mode) {
          case ChaosMode::kNone:
            return;
          case ChaosMode::kDisconnect: {
            // Request sent, reply abandoned mid-exchange: the server's
            // completion fan-out must tolerate the missing waiter.
            Json doc = Json::object();
            doc.set("op", Json::string("ping"));
            doc.set("delay_ms", Json::number(std::uint64_t{5}));
            client.send(doc);
            break;
          }
          case ChaosMode::kPartialFrame: {
            // A prefix of a legitimate frame, then silence, then gone:
            // exercises the server's half-frame buffering and its
            // tolerance of clients that never finish.
            Json doc = Json::object();
            doc.set("op", Json::string("stats"));
            const std::string frame = encodeFrame(doc.dump());
            const std::size_t cut =
                1 + rng.nextRange(frame.size() - 1);
            client.sendBytes(frame.data(), cut);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                1 + rng.nextRange(10)));
            break;
          }
          case ChaosMode::kGarbage: {
            // Random bytes. Whatever they decode to — an absurd length
            // prefix, unparseable JSON — the server must answer with a
            // protocol error or close only THIS connection.
            char junk[64];
            for (char &c : junk)
                c = static_cast<char>(rng.next() & 0xFF);
            client.sendBytes(junk, sizeof(junk));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            break;
          }
        }
    } catch (const FatalError &) {
        // The server may have cut us off mid-act; that is the point.
    }
    try {
        client.reconnect();
    } catch (const FatalError &) {
        // Transient refusal (listen backlog pressure); the next call()
        // retries under the client's policy.
    }
}

/** The endpoint connection @p index dials: round-robin over targets
 * when set, the single host/port otherwise. */
std::pair<std::string, std::uint16_t>
endpointFor(const LoadGenOptions &options, std::size_t index)
{
    if (options.targets.empty())
        return {options.host, options.port};
    return options.targets[index % options.targets.size()];
}

} // namespace

std::vector<Json>
loadgenRequestPool(const LoadGenOptions &options)
{
    const auto &benches = specBenchmarkNames();
    std::vector<Json> pool;
    for (unsigned v = 0; v < options.distinct; ++v) {
        // One generator per variant: the pool is independent of how many
        // variants a particular run asks for first.
        Rng rng(options.seed, 1'000 + v);

        Json run = Json::object();
        run.set("op", Json::string("run"));
        run.set("design",
                Json::string(designPool()[rng.nextRange(
                    designPool().size())]));
        const std::size_t programs = 2 + rng.nextRange(3);
        Json workload = Json::array();
        for (std::size_t i = 0; i < programs; ++i)
            workload.push(
                Json::string(benches[rng.nextRange(benches.size())]));
        run.set("workload", std::move(workload));
        run.set("budget", Json::number(options.budget));
        run.set("warmup", Json::number(options.warmup));
        run.set("seed", Json::number(std::uint64_t{42}));
        pool.push_back(std::move(run));

        Json sweep = Json::object();
        sweep.set("op", Json::string("sweep"));
        sweep.set("design",
                  Json::string(designPool()[rng.nextRange(
                      designPool().size())]));
        if (v % 2 == 1)
            sweep.set("bench",
                      Json::string(benches[rng.nextRange(benches.size())]));
        pool.push_back(std::move(sweep));

        Json isolated = Json::object();
        isolated.set("op", Json::string("isolated"));
        Json list = Json::array();
        const std::size_t count = 1 + rng.nextRange(3);
        for (std::size_t i = 0; i < count; ++i)
            list.push(Json::string(benches[rng.nextRange(benches.size())]));
        isolated.set("benches", std::move(list));
        pool.push_back(std::move(isolated));

        Json schedule = Json::object();
        schedule.set("op", Json::string("schedule"));
        schedule.set("design",
                     Json::string(designPool()[rng.nextRange(
                         designPool().size())]));
        const std::size_t mix_size = 2 + rng.nextRange(3);
        Json mix_list = Json::array();
        for (std::size_t i = 0; i < mix_size; ++i)
            mix_list.push(
                Json::string(benches[rng.nextRange(benches.size())]));
        schedule.set("benchmarks", std::move(mix_list));
        const auto &policies = online::onlinePolicyNames();
        schedule.set("policy",
                     Json::string(policies[rng.nextRange(policies.size())]));
        pool.push_back(std::move(schedule));
    }
    return pool;
}

std::string
LoadGenReport::summary() const
{
    std::ostringstream os;
    os << "requests   " << sent << " sent, " << ok << " ok, " << overloaded
       << " overloaded, " << deadline << " deadline, " << otherErrors
       << " other errors\n";
    if (mismatches)
        os << "MISMATCHES " << mismatches
           << " responses differed from the serial reference\n";
    if (chaosEvents || reconnects)
        os << "chaos      " << chaosEvents << " acts, " << reconnects
           << " retry reconnects\n";
    os.setf(std::ios::fixed);
    os.precision(1);
    os << "throughput " << throughput << " req/s over " << seconds
       << " s\n";
    os << "latency us p50 " << p50Us << ", p90 " << p90Us << ", p99 "
       << p99Us << ", max " << maxUs << "\n";
    os.precision(3);
    os << "server     cache_hits " << serverCacheHits << ", coalesced "
       << serverCoalesced << ", executed " << serverExecuted
       << ", hit_rate " << cacheHitRate << "\n";
    return os.str();
}

LoadGenReport
runLoadGen(const LoadGenOptions &options)
{
    const std::vector<Json> pool = loadgenRequestPool(options);
    const std::vector<std::string> mix = expandMix(options.mix);

    // Group pool entries by op for the weighted pick.
    std::vector<std::size_t> runs, sweeps, isolateds, schedules;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const std::string &op = pool[i].at("op").asString();
        (op == "run"        ? runs
             : op == "sweep"    ? sweeps
             : op == "schedule" ? schedules
                                : isolateds)
            .push_back(i);
    }

    struct PerConnection
    {
        std::vector<double> latenciesUs;
        std::uint64_t sent = 0, ok = 0, overloaded = 0, deadline = 0,
                      otherErrors = 0, mismatches = 0, chaosEvents = 0,
                      reconnects = 0;
    };
    std::vector<PerConnection> results(options.connections);
    const ChaosMode chaosMode = chaosModeFromName(options.chaos);
    if (chaosMode != ChaosMode::kNone && options.chaosEvery == 0)
        fatal("loadgen: chaosEvery must be >= 1");

    // Live monitor: its own connection polling the stats op, one
    // inform() line per interval. Best-effort — a refused connection or
    // a dying server just ends the monitoring, never the load.
    std::atomic<bool> monitorStop{false};
    std::thread monitor;
    if (options.statsIntervalMs > 0) {
        monitor = std::thread([&] {
            Json statsReq = Json::object();
            statsReq.set("op", Json::string("stats"));
            Client client;
            try {
                const auto target = endpointFor(options, 0);
                client.connect(target.first, target.second);
            } catch (const FatalError &) {
                return;
            }
            while (!monitorStop.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(options.statsIntervalMs));
                if (monitorStop.load(std::memory_order_relaxed))
                    break;
                try {
                    const Json reply = client.call(statsReq);
                    if (!reply.at("ok").asBool())
                        continue;
                    const Json &stats = reply.at("stats");
                    inform("loadgen: server requests ",
                           stats.at("requests").asU64(), ", executed ",
                           stats.at("executed").asU64(), ", cache_hits ",
                           stats.at("cache_hits").asU64(), ", coalesced ",
                           stats.at("coalesced").asU64(), ", overloaded ",
                           stats.at("overloaded").asU64(), ", queue_depth ",
                           stats.at("queue_depth").asU64());
                } catch (const FatalError &) {
                    return;
                }
            }
        });
    }

    const auto started = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(options.connections);
    for (unsigned c = 0; c < options.connections; ++c) {
        threads.emplace_back([&, c] {
            PerConnection &mine = results[c];
            Client client;
            try {
                client.setRetryPolicy(options.retry);
                const auto target = endpointFor(options, c);
                client.connect(target.first, target.second);
                Rng rng(options.seed, c);
                Rng chaosRng(options.seed, 5'000 + c);
                for (unsigned i = 0; i < options.requestsPerConnection;
                     ++i) {
                    if (chaosMode != ChaosMode::kNone &&
                        chaosRng.nextRange(options.chaosEvery) == 0) {
                        performChaos(client, chaosMode, chaosRng);
                        mine.chaosEvents++;
                    }
                    const std::string &op =
                        mix[rng.nextRange(mix.size())];
                    Json doc;
                    if (op == "ping") {
                        doc = Json::object();
                        doc.set("op", Json::string("ping"));
                        if (options.pingDelayMs)
                            doc.set("delay_ms",
                                    Json::number(options.pingDelayMs));
                    } else if (op == "stats" || op == "metrics") {
                        doc = Json::object();
                        doc.set("op", Json::string(op));
                    } else {
                        const auto &indices = op == "run" ? runs
                            : op == "sweep"               ? sweeps
                            : op == "schedule"            ? schedules
                                                          : isolateds;
                        doc = pool[indices[rng.nextRange(indices.size())]];
                    }
                    doc.set("id",
                            Json::number(std::uint64_t{c} * 1'000'000 + i));
                    if (options.deadlineMs &&
                        (op == "run" || op == "sweep" ||
                         op == "isolated" || op == "schedule"))
                        doc.set("deadline_ms",
                                Json::number(options.deadlineMs));

                    const auto t0 = std::chrono::steady_clock::now();
                    const Json reply = client.call(doc);
                    const auto t1 = std::chrono::steady_clock::now();
                    mine.sent++;
                    mine.latenciesUs.push_back(
                        std::chrono::duration<double, std::micro>(t1 - t0)
                            .count());

                    if (reply.at("ok").asBool()) {
                        mine.ok++;
                        if (!options.expectedOutputs.empty() &&
                            reply.has("output")) {
                            const std::string key =
                                parseRequest(doc).canonicalKey();
                            const auto it =
                                options.expectedOutputs.find(key);
                            if (it != options.expectedOutputs.end() &&
                                it->second != reply.at("output").asString())
                                mine.mismatches++;
                        }
                    } else {
                        const std::string &code =
                            reply.at("error").asString();
                        if (code == "overloaded")
                            mine.overloaded++;
                        else if (code == "deadline")
                            mine.deadline++;
                        else
                            mine.otherErrors++;
                    }
                }
            } catch (const FatalError &) {
                // Connection-level failure past the retry budget:
                // everything not yet sent on this connection is lost;
                // count one hard error.
                mine.otherErrors++;
            }
            mine.reconnects = client.reconnects();
        });
    }
    for (auto &thread : threads)
        thread.join();
    const auto finished = std::chrono::steady_clock::now();
    monitorStop.store(true, std::memory_order_relaxed);
    if (monitor.joinable())
        monitor.join();

    LoadGenReport report;
    std::vector<double> latencies;
    for (const PerConnection &mine : results) {
        report.sent += mine.sent;
        report.ok += mine.ok;
        report.overloaded += mine.overloaded;
        report.deadline += mine.deadline;
        report.otherErrors += mine.otherErrors;
        report.mismatches += mine.mismatches;
        report.chaosEvents += mine.chaosEvents;
        report.reconnects += mine.reconnects;
        latencies.insert(latencies.end(), mine.latenciesUs.begin(),
                         mine.latenciesUs.end());
    }
    report.seconds =
        std::chrono::duration<double>(finished - started).count();
    report.throughput =
        report.seconds > 0.0 ? report.sent / report.seconds : 0.0;
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        const auto at = [&](double q) {
            const std::size_t index = std::min(
                latencies.size() - 1,
                static_cast<std::size_t>(q * latencies.size()));
            return latencies[index];
        };
        report.p50Us = at(0.50);
        report.p90Us = at(0.90);
        report.p99Us = at(0.99);
        report.maxUs = latencies.back();
    }

    // Snapshot the server-side counters over a fresh connection.
    try {
        Client client;
        const auto target = endpointFor(options, 0);
        client.connect(target.first, target.second);
        Json statsReq = Json::object();
        statsReq.set("op", Json::string("stats"));
        const Json reply = client.call(statsReq);
        if (reply.at("ok").asBool()) {
            const Json &stats = reply.at("stats");
            report.serverCacheHits = stats.at("cache_hits").asU64();
            report.serverCoalesced = stats.at("coalesced").asU64();
            report.serverExecuted = stats.at("executed").asU64();
            const double answered = static_cast<double>(
                report.serverCacheHits + report.serverCoalesced +
                report.serverExecuted);
            report.cacheHitRate = answered > 0.0
                ? report.serverCacheHits / answered
                : 0.0;
        }
    } catch (const FatalError &) {
        // Server may already be shutting down; leave the counters zero.
    }
    return report;
}

} // namespace serve
} // namespace smtflex
