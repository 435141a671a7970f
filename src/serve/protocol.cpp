#include "protocol.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/env.h"
#include "common/log.h"

namespace smtflex {
namespace serve {

std::string
encodeFrame(const std::string &payload)
{
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(4 + payload.size());
    frame += static_cast<char>((n >> 24) & 0xff);
    frame += static_cast<char>((n >> 16) & 0xff);
    frame += static_cast<char>((n >> 8) & 0xff);
    frame += static_cast<char>(n & 0xff);
    frame += payload;
    return frame;
}

void
FrameDecoder::feed(const char *data, std::size_t size)
{
    // Drop the already-consumed prefix before growing the buffer so a
    // long-lived connection doesn't accumulate every frame it ever sent.
    if (consumed_ > 0 && consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
    } else if (consumed_ > 4096) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(data, size);
}

bool
FrameDecoder::next(std::string &out)
{
    if (buffer_.size() - consumed_ < 4)
        return false;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(buffer_.data()) + consumed_;
    const std::size_t length = (static_cast<std::size_t>(p[0]) << 24) |
        (static_cast<std::size_t>(p[1]) << 16) |
        (static_cast<std::size_t>(p[2]) << 8) | static_cast<std::size_t>(p[3]);
    if (length > maxFrame_)
        fatal("serve: frame of ", length, " bytes exceeds the ", maxFrame_,
              "-byte limit");
    if (buffer_.size() - consumed_ < 4 + length)
        return false;
    out.assign(buffer_, consumed_ + 4, length);
    consumed_ += 4 + length;
    return true;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::kPing:
        return "ping";
      case Op::kStats:
        return "stats";
      case Op::kMetrics:
        return "metrics";
      case Op::kRun:
        return "run";
      case Op::kSweep:
        return "sweep";
      case Op::kIsolated:
        return "isolated";
      case Op::kCachePull:
        return "cache_pull";
      case Op::kCachePush:
        return "cache_push";
      case Op::kSweepChunk:
        return "sweep_chunk";
      case Op::kSchedule:
        return "schedule";
    }
    return "?";
}

namespace {

/** An integer protocol field: a JSON number (validated by asU64) or a
 * decimal string routed through the strict common/env.h parser. */
std::uint64_t
fieldU64(const Json &doc, const std::string &key, std::uint64_t fallback)
{
    if (!doc.has(key))
        return fallback;
    const Json &node = doc.at(key);
    if (node.isString()) {
        const std::uint64_t value =
            parseU64(node.asString(), "request field '" + key + "'");
        // Mirror asU64's 2^53 cap: replies render numbers through a
        // double, so anything larger could not be echoed back exactly.
        if (value > (std::uint64_t{1} << 53))
            fatal("request field '", key, "' is ", value,
                  ", above 2^53 (the largest integer an exact JSON reply "
                  "can carry)");
        return value;
    }
    return node.asU64();
}

double
fieldDouble(const Json &doc, const std::string &key, double fallback)
{
    if (!doc.has(key))
        return fallback;
    const Json &node = doc.at(key);
    if (node.isString())
        return parseDouble(node.asString(), "request field '" + key + "'");
    return node.asNumber();
}

bool
fieldBool(const Json &doc, const std::string &key, bool fallback)
{
    return doc.has(key) ? doc.at(key).asBool() : fallback;
}

std::string
fieldString(const Json &doc, const std::string &key,
            const std::string &fallback)
{
    return doc.has(key) ? doc.at(key).asString() : fallback;
}

std::vector<std::string>
fieldStringList(const Json &doc, const std::string &key)
{
    std::vector<std::string> out;
    if (!doc.has(key))
        return out;
    for (const Json &element : doc.at(key).elements())
        out.push_back(element.asString());
    return out;
}

Json
stringList(const std::vector<std::string> &items)
{
    Json list = Json::array();
    for (const auto &item : items)
        list.push(Json::string(item));
    return list;
}

/** The fields `sweep` and `sweep_chunk` share, validated. */
SweepRequest
sweepFields(const Json &doc)
{
    SweepRequest sweep;
    sweep.design = fieldString(doc, "design", sweep.design);
    sweep.bench = fieldString(doc, "bench", "");
    sweep.het = fieldBool(doc, "het", false);
    sweep.noSmt = fieldBool(doc, "no_smt", false);
    sweep.hasBw = doc.has("bw");
    sweep.bw = fieldDouble(doc, "bw", sweep.bw);
    validateSweep(sweep);
    return sweep;
}

/** Write the fields sweepFields reads. */
void
setSweepFields(Json &doc, const SweepRequest &sweep)
{
    doc.set("design", Json::string(sweep.design));
    doc.set("bench", Json::string(sweep.bench));
    doc.set("het", Json::boolean(sweep.het));
    doc.set("no_smt", Json::boolean(sweep.noSmt));
    if (sweep.hasBw)
        doc.set("bw", Json::number(sweep.bw));
}

} // namespace

Json
recordsToJson(const CacheRecords &records)
{
    Json doc = Json::object();
    for (const auto &[key, values] : records) {
        Json list = Json::array();
        for (const double v : values)
            list.push(Json::number(v));
        doc.set(key, std::move(list));
    }
    return doc;
}

CacheRecords
recordsFromJson(const Json &records)
{
    if (!records.isObject())
        fatal("'records' must be an object of key -> value lists");
    CacheRecords out;
    for (const auto &[key, list] : records.members()) {
        std::vector<double> values;
        for (const Json &value : list.elements())
            values.push_back(value.asNumber());
        out.emplace_back(key, std::move(values));
    }
    return out;
}

std::uint64_t
extractId(const Json &doc)
{
    if (!doc.isObject() || !doc.has("id"))
        return 0;
    const Json &id = doc.at("id");
    if (!id.isNumber())
        return 0;
    // Replicates asU64's checks inline instead of calling it: this runs
    // inside the bad_request error path, where a fatal() on a negative,
    // fractional or oversized id would tear down the whole server.
    const double value = id.asNumber();
    if (value < 0.0 || value > 9007199254740992.0 /* 2^53 */ ||
        value != std::floor(value))
        return 0;
    return static_cast<std::uint64_t>(value);
}

Request
parseRequest(const Json &doc)
{
    if (!doc.isObject())
        fatal("request must be a JSON object");
    Request req;
    req.hasId = doc.has("id");
    req.id = fieldU64(doc, "id", 0);
    req.deadlineMs = fieldU64(doc, "deadline_ms", 0);

    const std::string op = fieldString(doc, "op", "");
    if (op == "ping") {
        req.op = Op::kPing;
        req.delayMs = fieldU64(doc, "delay_ms", 0);
    } else if (op == "stats") {
        req.op = Op::kStats;
    } else if (op == "metrics") {
        req.op = Op::kMetrics;
    } else if (op == "run") {
        req.op = Op::kRun;
        req.run.design = fieldString(doc, "design", req.run.design);
        req.run.workload = fieldStringList(doc, "workload");
        req.run.budget = fieldU64(doc, "budget", req.run.budget);
        req.run.warmup = fieldU64(doc, "warmup", req.run.warmup);
        req.run.seed = fieldU64(doc, "seed", req.run.seed);
        req.run.noSmt = fieldBool(doc, "no_smt", false);
        req.run.prefetch = fieldBool(doc, "prefetch", false);
        req.run.naiveSched = fieldBool(doc, "naive_sched", false);
        req.run.hasBw = doc.has("bw");
        req.run.bw = fieldDouble(doc, "bw", req.run.bw);
        req.run.report = fieldString(doc, "report", "");
        validateRun(req.run);
    } else if (op == "sweep") {
        req.op = Op::kSweep;
        req.sweep = sweepFields(doc);
    } else if (op == "isolated") {
        req.op = Op::kIsolated;
        req.isolated.benches = fieldStringList(doc, "benches");
        validateIsolated(req.isolated);
    } else if (op == "cache_pull") {
        req.op = Op::kCachePull;
        if (!doc.has("keys"))
            fatal("cache_pull: 'keys' (list of cache keys) required");
        req.cachePull.keys = fieldStringList(doc, "keys");
        if (req.cachePull.keys.empty())
            fatal("cache_pull: 'keys' must not be empty");
    } else if (op == "cache_push") {
        req.op = Op::kCachePush;
        if (!doc.has("records"))
            fatal("cache_push: 'records' (key -> value-list object) "
                  "required");
        req.cachePush.records = recordsFromJson(doc.at("records"));
    } else if (op == "sweep_chunk") {
        req.op = Op::kSweepChunk;
        req.chunk.sweep = sweepFields(doc);
        if (!doc.has("rows"))
            fatal("sweep_chunk: 'rows' (list of thread counts) required");
        for (const Json &row : doc.at("rows").elements()) {
            const std::uint64_t n = row.asU64();
            if (n == 0)
                fatal("sweep_chunk: row thread counts must be positive");
            req.chunk.rows.push_back(static_cast<std::uint32_t>(n));
        }
        if (req.chunk.rows.empty())
            fatal("sweep_chunk: 'rows' must not be empty");
    } else if (op == "schedule") {
        req.op = Op::kSchedule;
        req.schedule.design =
            fieldString(doc, "design", req.schedule.design);
        req.schedule.benchmarks = fieldStringList(doc, "benchmarks");
        req.schedule.policy =
            fieldString(doc, "policy", req.schedule.policy);
        req.schedule.noSmt = fieldBool(doc, "no_smt", false);
        req.schedule.hasBw = doc.has("bw");
        req.schedule.bw = fieldDouble(doc, "bw", req.schedule.bw);
        validateSchedule(req.schedule);
    } else if (op.empty()) {
        fatal("request is missing the 'op' member");
    } else {
        fatal("unknown op '", op,
              "' (expected ping, stats, metrics, run, sweep, isolated, "
              "cache_pull, cache_push, sweep_chunk or schedule)");
    }
    return req;
}

Json
Request::toJson() const
{
    Json doc = Json::object();
    doc.set("op", Json::string(opName(op)));
    switch (op) {
      case Op::kPing:
        doc.set("delay_ms", Json::number(delayMs));
        break;
      case Op::kStats:
      case Op::kMetrics:
        break;
      case Op::kRun:
        doc.set("design", Json::string(run.design));
        doc.set("workload", stringList(run.workload));
        doc.set("budget", Json::number(run.budget));
        doc.set("warmup", Json::number(run.warmup));
        doc.set("seed", Json::number(run.seed));
        doc.set("no_smt", Json::boolean(run.noSmt));
        doc.set("prefetch", Json::boolean(run.prefetch));
        doc.set("naive_sched", Json::boolean(run.naiveSched));
        if (run.hasBw)
            doc.set("bw", Json::number(run.bw));
        doc.set("report", Json::string(run.report));
        break;
      case Op::kSweep:
        setSweepFields(doc, sweep);
        break;
      case Op::kIsolated:
        doc.set("benches", stringList(isolated.benches));
        break;
      case Op::kCachePull:
        doc.set("keys", stringList(cachePull.keys));
        break;
      case Op::kCachePush:
        doc.set("records", recordsToJson(cachePush.records));
        break;
      case Op::kSweepChunk: {
        setSweepFields(doc, chunk.sweep);
        Json rows = Json::array();
        for (const std::uint32_t n : chunk.rows)
            rows.push(Json::number(std::uint64_t{n}));
        doc.set("rows", std::move(rows));
        break;
      }
      case Op::kSchedule:
        doc.set("design", Json::string(schedule.design));
        doc.set("benchmarks", stringList(schedule.benchmarks));
        doc.set("policy", Json::string(schedule.policy));
        doc.set("no_smt", Json::boolean(schedule.noSmt));
        if (schedule.hasBw)
            doc.set("bw", Json::number(schedule.bw));
        break;
    }
    return doc;
}

std::string
Request::canonicalKey() const
{
    // A canonical JSON rendering (sorted keys, defaults filled in), so
    // any two requests for the same simulation — however spelled — share
    // one key.
    switch (op) {
      case Op::kPing:
      case Op::kStats:
      case Op::kMetrics:
      case Op::kCachePull:
      case Op::kCachePush:
        return std::string();
      case Op::kRun:
      case Op::kSweep:
      case Op::kIsolated:
      case Op::kSweepChunk:
      case Op::kSchedule:
        break;
    }
    return toJson().dump();
}

Json
makeResponse(Op op)
{
    Json doc = Json::object();
    doc.set("ok", Json::boolean(true));
    doc.set("op", Json::string(opName(op)));
    return doc;
}

Json
makeError(const std::string &code, const std::string &message)
{
    Json doc = Json::object();
    doc.set("ok", Json::boolean(false));
    doc.set("error", Json::string(code));
    if (!message.empty())
        doc.set("message", Json::string(message));
    return doc;
}

Json
answerLocally(StudyEngine &engine, const Request &request)
{
    Json body = makeResponse(request.op);
    switch (request.op) {
      case Op::kPing:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(request.delayMs));
        body.set("pong", Json::boolean(true));
        return body;
      case Op::kRun:
        body.set("output", Json::string(runText(engine, request.run)));
        return body;
      case Op::kSweep:
        body.set("output", Json::string(sweepText(engine, request.sweep)));
        return body;
      case Op::kIsolated:
        body.set("output",
                 Json::string(isolatedText(engine, request.isolated)));
        return body;
      case Op::kSchedule:
        body.set("output",
                 Json::string(scheduleText(engine, request.schedule)));
        return body;
      case Op::kSweepChunk:
        body.set("records",
                 recordsToJson(sweepChunkRecords(engine, request.chunk.sweep,
                                                 request.chunk.rows)));
        return body;
      case Op::kStats:
      case Op::kMetrics:
      case Op::kCachePull:
      case Op::kCachePush:
        break;
    }
    fatal("serve: op ", opName(request.op), " is answered inline");
}

} // namespace serve
} // namespace smtflex
