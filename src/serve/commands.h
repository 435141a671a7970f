/**
 * @file
 * The command core shared by the `smtflex` CLI and the smtflex::serve
 * network server: typed request structs for the run/sweep/isolated
 * commands plus renderers that produce the exact text the CLI prints.
 *
 * Both front ends call the same renderer with the same StudyEngine entry
 * points, so a served response is byte-identical to the serial CLI output
 * for the same request — the property the loopback e2e test asserts.
 */

#ifndef SMTFLEX_SERVE_COMMANDS_H
#define SMTFLEX_SERVE_COMMANDS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/chip_config.h"
#include "study/study_engine.h"

namespace smtflex {
namespace serve {

/** ResultCache records as (key, values) pairs: the payload of the
 * sweep_chunk, cache_pull and cache_push ops. */
using CacheRecords = std::vector<std::pair<std::string, std::vector<double>>>;

/** Parameters of a `run` command (one multi-program simulation). */
struct RunRequest
{
    std::string design = "4B";
    std::vector<std::string> workload; ///< benchmark names, >= 1
    std::uint64_t budget = 12'000;
    std::uint64_t warmup = 3'000;
    std::uint64_t seed = 42;
    bool noSmt = false;
    bool prefetch = false;
    bool naiveSched = false;
    bool hasBw = false;
    double bw = 8.0;
    std::string report; ///< "", "text", "csv-threads" or "csv-cores"
};

/** Parameters of a `sweep` command (STP/ANTT/power vs thread count). */
struct SweepRequest
{
    std::string design = "4B";
    std::string bench; ///< homogeneous single-benchmark sweep when set
    bool het = false;  ///< heterogeneous mixes instead of homogeneous
    bool noSmt = false;
    bool hasBw = false;
    double bw = 8.0;
};

/** Parameters of an `isolated` command (per-core-type IPC table). */
struct IsolatedRequest
{
    std::vector<std::string> benches; ///< empty = all SPEC profiles
};

/**
 * Parameters of a `schedule` command (online thread-to-core placement;
 * DESIGN.md §14). Sample budgets, warmup and seed are governed by the
 * engine's StudyOptions — like sweep, the decision is a pure function of
 * (StudyOptions, design, mix, policy), which keeps it memoisable.
 */
struct ScheduleRequest
{
    std::string design = "4B";
    std::vector<std::string> benchmarks; ///< SPEC or PARSEC names, >= 1
    std::string policy = "pairing";      ///< onlinePolicyNames() member
    bool noSmt = false;
    bool hasBw = false;
    double bw = 8.0;
};

/**
 * Resolve a design name against the paper and alternative design sets and
 * apply the request-level config switches; fatal() on unknown names.
 */
ChipConfig buildDesign(const std::string &name, bool no_smt, bool has_bw,
                       double bw, bool prefetch);

/** Validate @p req without running it: design and benchmark names exist,
 * workload non-empty, report kind known. fatal() on violations. */
void validateRun(const RunRequest &req);
void validateSweep(const SweepRequest &req);
void validateIsolated(const IsolatedRequest &req);
void validateSchedule(const ScheduleRequest &req);

/** Render the command output (identical to the CLI's stdout text). */
std::string runText(StudyEngine &engine, const RunRequest &req);
std::string sweepText(StudyEngine &engine, const SweepRequest &req);
std::string isolatedText(StudyEngine &engine, const IsolatedRequest &req);
std::string scheduleText(StudyEngine &engine, const ScheduleRequest &req);

/**
 * Compute the sweep rows named by @p rows (StudyEngine::sweepRow, as
 * sweepText does) and collect the backing ResultCache records
 * — every row's multiprogram keys plus the isolated characterisation
 * keys. Counts that are not rows of this sweep (StudyEngine::sweepRows:
 * beyond the design's contexts, or off the simulated grid) are skipped.
 * This is the unit of work a dist coordinator shards: the caller
 * re-renders text locally from the records, which is what makes a
 * coordinated sweep byte-identical to a single-node one.
 */
CacheRecords sweepChunkRecords(StudyEngine &engine, const SweepRequest &req,
                               const std::vector<std::uint32_t> &rows);

} // namespace serve
} // namespace smtflex

#endif // SMTFLEX_SERVE_COMMANDS_H
