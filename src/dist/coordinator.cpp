#include "coordinator.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "common/log.h"
#include "serve/commands.h"
#include "telemetry/registry.h"

namespace smtflex {
namespace dist {

serve::ServerOptions
Coordinator::withExecutor(serve::ServerOptions options)
{
    // The lambda outlives this constructor call but not the Coordinator:
    // server_ is a member, and the hook only runs inside server_.run().
    options.simExecutor = [this](const serve::Request &request) {
        return execute(request);
    };
    return options;
}

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      server_(withExecutor(options_.server)),
      pool_(options_.backends, options_.pool)
{
    telemetry::MetricRegistry &registry = server_.registry();
    telemetry::attachCounters(registry, "dist", stats_);
    registry.gauge("dist.backends",
                   [this] { return std::uint64_t{pool_.size()}; });
    registry.gauge("dist.backends_healthy", [this] {
        return std::uint64_t{pool_.healthyIndices().size()};
    });
    pool_.registerMetrics(registry);
}

serve::Json
Coordinator::execute(const serve::Request &request)
{
    switch (request.op) {
      case serve::Op::kSweep:
        return coordinateSweep(request.sweep);
      case serve::Op::kRun:
      case serve::Op::kIsolated:
      case serve::Op::kSchedule:
        return forward(request);
      default:
        fatal("dist: simExecutor invoked for op ",
              serve::opName(request.op));
    }
}

std::uint64_t
Coordinator::storeRecords(const serve::Json &reply)
{
    if (!reply.has("records"))
        return 0;
    ResultCache &cache = server_.engine().resultCache();
    std::uint64_t stored = 0;
    for (const auto &[key, values] :
         serve::recordsFromJson(reply.at("records"))) {
        if (key.empty() || values.empty())
            continue; // a malformed backend record is skippable noise
        cache.store(key, values);
        ++stored;
    }
    if (stored != 0)
        cache.flush();
    return stored;
}

std::vector<std::string>
Coordinator::pullRecords(const std::vector<std::string> &keys,
                         const std::vector<std::size_t> &healthy)
{
    std::vector<std::string> missing = keys;
    for (const std::size_t index : healthy) {
        if (missing.empty())
            break;
        serve::Request pull;
        pull.op = serve::Op::kCachePull;
        pull.cachePull.keys = missing;
        try {
            const serve::Json reply = pool_.at(index).call(pull.toJson());
            stats_.recordsPulled.fetch_add(storeRecords(reply));
        } catch (const FatalError &) {
            continue; // an unreachable backend just cannot contribute
        }
        std::vector<std::string> still;
        for (const auto &key : missing) {
            if (!server_.engine().resultCache().lookup(key))
                still.push_back(key);
        }
        missing = std::move(still);
    }
    return missing;
}

void
Coordinator::pushRecords(const std::vector<std::string> &keys,
                         Backend &backend)
{
    serve::Request push;
    push.op = serve::Op::kCachePush;
    for (const auto &key : keys) {
        if (const auto hit = server_.engine().resultCache().lookup(key))
            push.cachePush.records.emplace_back(key, *hit);
    }
    if (push.cachePush.records.empty())
        return;
    try {
        const serve::Json reply = backend.call(push.toJson());
        if (reply.has("stored"))
            stats_.recordsPushed.fetch_add(reply.at("stored").asU64());
    } catch (const FatalError &) {
        // Best-effort: the backend will recompute what it was not given.
    }
}

void
Coordinator::shardRows(const serve::SweepRequest &req,
                       const std::vector<std::uint32_t> &rows,
                       const std::vector<std::size_t> &healthy)
{
    std::size_t chunk_rows = options_.chunkRows;
    if (chunk_rows == 0)
        chunk_rows = std::max<std::size_t>(
            1, rows.size() / (2 * healthy.size()));
    ShardPlanner planner(rows.size(), chunk_rows, options_.maxDispatch);

    StudyEngine &engine = server_.engine();

    // The key universe of this sweep, for seeding the fleet with what
    // the coordinator already knows.
    const ChipConfig cfg = serve::buildDesign(req.design, req.noSmt,
                                              req.hasBw, req.bw, false);
    std::vector<std::string> universe = engine.isolationCacheKeys();
    for (const std::uint32_t n : rows) {
        const auto row_keys =
            engine.sweepRowCacheKeys(cfg, req.bench, req.het, n);
        universe.insert(universe.end(), row_keys.begin(), row_keys.end());
    }

    std::vector<std::thread> workers;
    workers.reserve(healthy.size());
    for (const std::size_t index : healthy) {
        workers.emplace_back([this, index, &planner, &req, &rows,
                              &universe] {
            Backend &backend = pool_.at(index);
            pushRecords(universe, backend);
            while (!planner.settled()) {
                if (!backend.healthy())
                    return; // quarantined: leave the work to the others
                auto chunk = planner.claim(
                    std::chrono::milliseconds(options_.stealAfterMs));
                if (!chunk) {
                    // Someone else's chunks are in flight and not yet
                    // stale; re-check shortly.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                    continue;
                }
                serve::Request request;
                request.op = serve::Op::kSweepChunk;
                request.chunk.sweep = req;
                for (const std::size_t item : chunk->items)
                    request.chunk.rows.push_back(rows[item]);
                try {
                    const serve::Json reply = backend.call(request.toJson());
                    // Durability before completion: once the planner
                    // marks the chunk done, nobody will redo it — so
                    // storeRecords has already flushed its records.
                    stats_.recordsStored.fetch_add(storeRecords(reply));
                    const auto fresh = planner.complete(chunk->id);
                    stats_.rowsCompleted.fetch_add(fresh.size());
                } catch (const FatalError &e) {
                    stats_.chunkFailures.fetch_add(1);
                    warn("dist: chunk ", chunk->id, " failed on ",
                         backend.label(), ": ", e.what());
                    planner.release(chunk->id);
                }
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    stats_.chunksDispatched.fetch_add(planner.dispatched());
    stats_.chunksStolen.fetch_add(planner.stolen());
    stats_.chunksRequeued.fetch_add(planner.requeued());
    stats_.rowsDuplicate.fetch_add(planner.duplicateItems());
}

serve::Json
Coordinator::coordinateSweep(const serve::SweepRequest &req)
{
    stats_.sweeps.fetch_add(1);
    StudyEngine &engine = server_.engine();
    const ChipConfig cfg = serve::buildDesign(req.design, req.noSmt,
                                              req.hasBw, req.bw, false);

    const std::vector<std::uint32_t> rows = engine.sweepRows(cfg);

    const auto missingKeys = [&] {
        std::vector<std::string> missing;
        std::unordered_set<std::string> seen;
        auto add = [&](const std::string &key) {
            if (!seen.insert(key).second)
                return;
            if (!engine.resultCache().lookup(key))
                missing.push_back(key);
        };
        for (const auto &key : engine.isolationCacheKeys())
            add(key);
        for (const std::uint32_t n : rows) {
            for (const auto &key :
                 engine.sweepRowCacheKeys(cfg, req.bench, req.het, n))
                add(key);
        }
        return missing;
    };
    const auto missingRows = [&] {
        std::vector<std::uint32_t> out;
        for (const std::uint32_t n : rows) {
            for (const auto &key :
                 engine.sweepRowCacheKeys(cfg, req.bench, req.het, n)) {
                if (!engine.resultCache().lookup(key)) {
                    out.push_back(n);
                    break;
                }
            }
        }
        return out;
    };

    if (!missingKeys().empty() && pool_.size() > 0) {
        const auto healthy = pool_.probeAll();
        if (!healthy.empty()) {
            // Federation first: a warm backend may spare the whole
            // fleet the simulation.
            pullRecords(missingKeys(), healthy);
            const auto still = missingRows();
            if (!still.empty())
                shardRows(req, still, healthy);
        }
    }

    // Render locally. With a fully federated cache this is pure lookups
    // — byte-identical to a single-node sweep by construction. Anything
    // the fleet failed to deliver is recomputed here (deterministic, so
    // still byte-identical), which the counter makes visible.
    const auto leftovers = missingKeys();
    if (!leftovers.empty()) {
        stats_.recordsMissingAtRender.fetch_add(leftovers.size());
        stats_.rowsLocal.fetch_add(missingRows().size());
        warn("dist: computing ", leftovers.size(),
             " record(s) locally (fleet unavailable or incomplete)");
    }
    serve::Json body = serve::makeResponse(serve::Op::kSweep);
    body.set("output",
             serve::Json::string(serve::sweepText(engine, req)));
    return body;
}

serve::Json
Coordinator::forward(const serve::Request &request)
{
    const serve::Json doc = request.toJson();
    const std::size_t n = pool_.size();
    for (std::size_t attempt = 0; attempt < n; ++attempt) {
        const std::size_t index = rrNext_.fetch_add(1) % n;
        Backend &backend = pool_.at(index);
        if (!backend.healthy() && !backend.probe())
            continue;
        try {
            const serve::Json reply = backend.call(doc);
            stats_.forwarded.fetch_add(1);
            // Strip the backend's id echo; the coordinator's server
            // stamps each waiter's own id.
            serve::Json body = serve::Json::object();
            for (const auto &member : reply.members()) {
                if (member.first != "id")
                    body.set(member.first, member.second);
            }
            return body;
        } catch (const FatalError &) {
            stats_.forwardFailovers.fetch_add(1);
        }
    }

    // No backend could answer: compute locally (same renderers, same
    // output bytes).
    stats_.forwardLocal.fetch_add(1);
    return serve::answerLocally(server_.engine(), request);
}

} // namespace dist
} // namespace smtflex
