/**
 * @file
 * smtflex::ckpt — the SnapshotStore: a directory of snapshot files keyed
 * by (resume key, cycle), plus the process-wide `SMTFLEX_CKPT=dir[:interval]`
 * binding that turns checkpointing on for every ChipSim run in the
 * process (serve backends, the coordinator, the CLI) with zero behaviour
 * change when unset.
 *
 * File names are `<fnv64(key) hex>-<cycle>.ckpt`; the full key is echoed
 * inside the envelope and validated on load, so a 64-bit hash collision
 * can never resurrect a foreign simulation state. Corrupt or torn files
 * are skipped, counted (CkptStats::corruptSkipped) and surfaced via the
 * serve `stats` op — never fatal, never partially restored.
 */

#ifndef SMTFLEX_CKPT_STORE_H
#define SMTFLEX_CKPT_STORE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ckpt/snapshot.h"

namespace smtflex {
namespace ckpt {

/** Monotonic ckpt.* counters (referenced by the MetricRegistry). */
struct CkptStats
{
    std::atomic<std::uint64_t> saves{0};
    std::atomic<std::uint64_t> saveBytes{0};
    std::atomic<std::uint64_t> saveFailures{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> corruptSkipped{0};
    std::atomic<std::uint64_t> resumedCycles{0};
    std::atomic<std::uint64_t> resumeMs{0};

    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("saves", &CkptStats::saves);
        f("save_bytes", &CkptStats::saveBytes);
        f("save_failures", &CkptStats::saveFailures);
        f("hits", &CkptStats::hits);
        f("misses", &CkptStats::misses);
        f("corrupt_skipped", &CkptStats::corruptSkipped);
        f("resumed_cycles", &CkptStats::resumedCycles);
        f("resume_ms", &CkptStats::resumeMs);
    }
};

/** FNV-1a 64-bit hash (snapshot file naming). */
std::uint64_t keyHash64(const std::string &key);

/**
 * A directory of snapshots. All methods are safe to call from multiple
 * threads (the underlying operations are atomic file publishes and
 * independent reads); counters are atomics.
 */
class SnapshotStore
{
  public:
    /** @param dir created (one level) if missing. */
    SnapshotStore(std::string dir, CkptStats *stats);

    const std::string &dir() const { return dir_; }

    /** Persist @p snap as `<hash>-<cycle>.ckpt`; counts saves/failures. */
    bool save(const Snapshot &snap) const;

    /**
     * Best resumable snapshot for @p key: scan the store for this key's
     * files, newest (highest cycle) first, skip corrupt ones (counted),
     * skip echo mismatches, and return the first for which @p eligible
     * says yes. std::nullopt when none qualifies.
     */
    std::optional<Snapshot>
    best(const std::string &key,
         const std::function<bool(const Snapshot &)> &eligible) const;

  private:
    std::string dir_;
    CkptStats *stats_;
};

/** An active process-wide checkpoint configuration. */
struct ProcessBinding
{
    SnapshotStore store;
    /** Snapshot every this many simulated cycles (also the fast-forward
     * clamp grain). */
    std::uint64_t interval = 0;
};

/**
 * The process binding, lazily parsed from `SMTFLEX_CKPT=dir[:interval]`
 * on first call (interval defaults to 1,000,000 cycles). Returns nullptr
 * when checkpointing is off — callers' fast path is one pointer check.
 */
const ProcessBinding *processBinding();

/** Install a binding programmatically (CLI `--ckpt`, tests). Overrides
 * the environment; an empty @p dir turns checkpointing off. */
void configureProcess(const std::string &dir, std::uint64_t interval);

/** Same, from a raw `dir[:interval]` spec (the CLI flag's verbatim
 * value; interval defaults as with the environment variable). */
void configureProcessSpec(const std::string &spec);

/** Drop any binding and re-arm lazy env parsing (tests). */
void resetProcess();

/** The counters every binding reports into. */
CkptStats &processStats();

} // namespace ckpt
} // namespace smtflex

#endif // SMTFLEX_CKPT_STORE_H
