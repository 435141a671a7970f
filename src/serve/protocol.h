/**
 * @file
 * The smtflex::serve wire protocol.
 *
 * Framing: every message (both directions) is a 4-byte big-endian payload
 * length followed by that many bytes of UTF-8 JSON. Frames above the
 * configured maximum are a protocol error — the server replies with a
 * `frame_too_large` error and closes the connection (the stream position
 * is unrecoverable once a frame is skipped).
 *
 * Requests are JSON objects:
 *
 *   {"op":"ping"}                        liveness probe (optionally with
 *                                        "delay_ms":N — the reply is then
 *                                        produced by a worker after the
 *                                        delay, a load-testing aid)
 *   {"op":"stats"}                       server counters snapshot
 *   {"op":"metrics"}                     full metric-registry dump: a
 *                                        "metrics" object keyed by dotted
 *                                        path plus an "exposition" string
 *                                        of Prometheus-style text
 *   {"op":"run","design":"4B","workload":["mcf","hmmer"],...}
 *   {"op":"sweep","design":"2B4m","het":true,...}
 *   {"op":"isolated","benches":["tonto"]}
 *   {"op":"cache_pull","keys":["mp;4B;...","iso;mcf;..."]}
 *                                        fetch ResultCache records by key;
 *                                        replies {"records":{key:[v,...]},
 *                                        "misses":N} with absent keys
 *                                        simply omitted
 *   {"op":"cache_push","records":{key:[v,...]}}
 *                                        seed ResultCache records; replies
 *                                        {"stored":N,"rejected":N}
 *                                        (structurally empty records — an
 *                                        empty key or value list — are
 *                                        rejected, not fatal)
 *   {"op":"sweep_chunk","design":"4B","rows":[1,2,12],...}
 *                                        compute the named sweep rows and
 *                                        reply with the backing
 *                                        ResultCache records instead of
 *                                        rendered text — the unit of work
 *                                        the dist coordinator shards
 *   {"op":"schedule","design":"3B5s","benchmarks":["mcf","hmmer"],
 *    "policy":"pairing"}                 online thread-to-core placement
 *                                        for the mix (DESIGN.md §14):
 *                                        sample, classify, place; replies
 *                                        with the placement table and
 *                                        predicted STP/ANTT as text
 *
 * Common optional members: "id" (u64, echoed verbatim in the reply so
 * clients may pipeline), "deadline_ms" (u64; the request is answered with
 * a `deadline` error if a worker cannot start it in time). Integer fields
 * accept JSON numbers or decimal strings; both are validated through
 * common/env.h's strict parsers, and both are capped at 2^53 (the largest
 * integer an exact JSON reply can echo back).
 *
 * Responses: {"id":N,"ok":true,...} or {"id":N,"ok":false,"error":CODE,
 * "message":TEXT} with CODE in {bad_request, overloaded, deadline,
 * shutting_down, frame_too_large, response_too_large, failed, internal}.
 * A response body that would exceed the frame cap is replaced by a
 * `response_too_large` error rather than poisoning the client's decoder.
 */

#ifndef SMTFLEX_SERVE_PROTOCOL_H
#define SMTFLEX_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/commands.h"
#include "serve/json.h"

namespace smtflex {
namespace serve {

/** Default cap on a frame's payload size (requests and responses). */
constexpr std::size_t kDefaultMaxFrame = 1u << 20;

/** Wrap @p payload in a length-prefixed frame. */
std::string encodeFrame(const std::string &payload);

/**
 * Incremental frame decoder: feed() bytes as they arrive (in any
 * fragmentation), then next() extracts complete payloads. Once a frame
 * exceeding the maximum is seen the decoder is poisoned: next() fatal()s
 * and the connection must be dropped.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(std::size_t max_frame = kDefaultMaxFrame)
        : maxFrame_(max_frame)
    {
    }

    /** Append @p size raw bytes from the stream. */
    void feed(const char *data, std::size_t size);

    /**
     * Extract the next complete payload into @p out.
     * @return whether a payload was extracted. fatal()s on an oversized
     * frame header.
     */
    bool next(std::string &out);

    /** Bytes buffered but not yet returned. */
    std::size_t buffered() const { return buffer_.size() - consumed_; }

  private:
    std::size_t maxFrame_;
    std::string buffer_;
    std::size_t consumed_ = 0; ///< prefix of buffer_ already returned
};

/** Request verbs of the protocol. */
enum class Op
{
    kPing,
    kStats,
    kMetrics,
    kRun,
    kSweep,
    kIsolated,
    kCachePull,
    kCachePush,
    kSweepChunk,
    kSchedule,
};

/** Printable verb name (as used on the wire). */
const char *opName(Op op);

/** Parameters of a `cache_pull` (federated ResultCache read). */
struct CachePullRequest
{
    std::vector<std::string> keys;
};

/** Parameters of a `cache_push` (federated ResultCache seed). Records
 * keep their wire order (canonical JSON: sorted by key). */
struct CachePushRequest
{
    std::vector<std::pair<std::string, std::vector<double>>> records;
};

/** Parameters of a `sweep_chunk`: a slice of a sweep's thread-count grid
 * whose result is the backing cache records, not rendered text. */
struct SweepChunkRequest
{
    SweepRequest sweep;
    std::vector<std::uint32_t> rows;
};

/** A parsed, validated request. */
struct Request
{
    Op op = Op::kPing;
    std::uint64_t id = 0;
    bool hasId = false;
    std::uint64_t deadlineMs = 0; ///< 0 = no deadline
    std::uint64_t delayMs = 0;    ///< ping only: artificial service time
    RunRequest run;
    SweepRequest sweep;
    IsolatedRequest isolated;
    CachePullRequest cachePull;
    CachePushRequest cachePush;
    SweepChunkRequest chunk;
    ScheduleRequest schedule;

    /**
     * Canonical identity of the simulation this request asks for, used
     * for coalescing identical in-flight requests and memoising
     * responses. Empty for ping/stats/metrics — and for the cache_pull/
     * cache_push federation ops, which read or write mutable state and
     * must never be coalesced or cached. Excludes id/deadline: two
     * requests differing only in those fields share one simulation.
     */
    std::string canonicalKey() const;
};

/**
 * Parse and validate a request document. fatal() (with a client-facing
 * message) on unknown ops, missing/mistyped members, unknown design or
 * benchmark names, and malformed integer fields.
 */
Request parseRequest(const Json &doc);

/** Best-effort id extraction from a possibly invalid request document,
 * so error replies can still be correlated. Returns 0 when absent. */
std::uint64_t extractId(const Json &doc);

/** Build the common success envelope: {"id":id,"ok":true,"op":op}. */
Json makeResponse(Op op);

/** Build an error reply body: {"ok":false,"error":code,"message":msg}. */
Json makeError(const std::string &code, const std::string &message);

/**
 * The response body of @p request computed in this process with
 * @p engine: the ops a worker answers (ping after its delay, run, sweep,
 * isolated, schedule, sweep_chunk). fatal() for the ops the I/O thread
 * answers inline (stats, metrics, cache_pull, cache_push). Server workers
 * and the dist coordinator's local fallback both answer through it.
 */
Json answerLocally(StudyEngine &engine, const Request &request);

} // namespace serve
} // namespace smtflex

#endif // SMTFLEX_SERVE_PROTOCOL_H
