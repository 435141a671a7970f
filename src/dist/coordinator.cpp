#include "coordinator.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "common/log.h"
#include "serve/commands.h"
#include "telemetry/registry.h"

namespace smtflex {
namespace dist {

namespace {

/** The sweep_chunk request for @p items (indices into @p rows). */
serve::Json
chunkRequest(const serve::SweepRequest &req,
             const std::vector<std::uint32_t> &rows,
             const std::vector<std::size_t> &items)
{
    serve::Json doc = serve::Json::object();
    doc.set("op", serve::Json::string("sweep_chunk"));
    doc.set("design", serve::Json::string(req.design));
    doc.set("bench", serve::Json::string(req.bench));
    doc.set("het", serve::Json::boolean(req.het));
    doc.set("no_smt", serve::Json::boolean(req.noSmt));
    if (req.hasBw)
        doc.set("bw", serve::Json::number(req.bw));
    serve::Json list = serve::Json::array();
    for (const std::size_t item : items)
        list.push(serve::Json::number(std::uint64_t{rows[item]}));
    doc.set("rows", std::move(list));
    return doc;
}

} // namespace

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
    for (const auto &member : reply.at("records").members()) {
        std::vector<double> values;
        for (const serve::Json &value : member.second.elements())
            values.push_back(value.asNumber());
        if (member.first.empty() || values.empty())
            continue; // a malformed backend record is skippable noise
        cache.store(member.first, values);
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
        serve::Json doc = serve::Json::object();
        doc.set("op", serve::Json::string("cache_pull"));
        serve::Json list = serve::Json::array();
        for (const auto &key : missing)
            list.push(serve::Json::string(key));
        doc.set("keys", std::move(list));
        try {
            const serve::Json reply = pool_.at(index).call(doc);
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
    serve::Json records = serve::Json::object();
    std::size_t count = 0;
    for (const auto &key : keys) {
        if (const auto hit = server_.engine().resultCache().lookup(key)) {
            serve::Json values = serve::Json::array();
            for (const double v : *hit)
                values.push(serve::Json::number(v));
            records.set(key, std::move(values));
            ++count;
        }
    }
    if (count == 0)
        return;
    serve::Json doc = serve::Json::object();
    doc.set("op", serve::Json::string("cache_push"));
    doc.set("records", std::move(records));
    try {
        const serve::Json reply = backend.call(doc);
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
                try {
                    const serve::Json reply = backend.call(
                        chunkRequest(req, rows, chunk->items));
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

    // The same row list sweepText will iterate.
    std::vector<std::uint32_t> rows;
    for (const std::uint32_t n : engine.sweepThreadCounts()) {
        if (n > cfg.totalContexts())
            break;
        rows.push_back(n);
    }

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
    // The canonical key is a complete, defaults-filled request document
    // — exactly what a backend expects on the wire.
    const serve::Json doc = serve::Json::parse(request.canonicalKey());
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
