/**
 * @file
 * Disk-backed memoisation of simulation results. A full design-space sweep
 * involves thousands of simulations that several figures share; the cache
 * lets every bench binary reuse one sweep (the substitute for the paper's
 * supercomputer simulation campaign; see DESIGN.md).
 */

#ifndef SMTFLEX_STUDY_RESULT_CACHE_H
#define SMTFLEX_STUDY_RESULT_CACHE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace smtflex {

/**
 * A persistent, concurrency-safe map from string keys to vectors of
 * doubles.
 *
 * The map is sharded: each of kNumShards shards has its own mutex, its own
 * entry map and its own append-only file segment (`<path>.shard-NN`), so
 * parallel experiment workers can store and look up results without
 * contending on one lock or interleaving writes within one file. Records
 * are appended as they are computed, so an interrupted sweep resumes where
 * it stopped.
 *
 * On-disk format, one record per line: `key|v1 v2 ...|cXXXXXXXX`, where
 * the trailing field is the CRC-32 of everything before its separator, in
 * eight hex digits. Keys are escaped on write ('\\' -> "\\\\", '|' ->
 * "\\p", newline -> "\\n", carriage return -> "\\r") so any non-empty key
 * round-trips. Both older formats still load: the pre-sharding single
 * file (`<path>` itself, loaded first so shard segments override it) and
 * CRC-less `key|v1 v2 ...` lines.
 *
 * Durability: lines that fail the CRC or are structurally broken (a torn
 * final write, a merged line after a short append) are skipped, counted
 * (corruptLinesSkipped()) and reported with one warning per file — a
 * corrupt line costs one recomputation, never a corrupt result. Appends
 * that come up short are terminated and retried so the record still
 * persists. flush() makes every appended record durable;
 * checkpoint() rewrites every segment through the atomic tmp + rename +
 * fsync dance; SMTFLEX_CACHE_FSYNC=1 additionally fsyncs each appended
 * record. Injection seams (smtflex::fault sites io.write,
 * io.fsync, io.load) make all of these paths testable on demand.
 */
class ResultCache
{
  public:
    static constexpr std::size_t kNumShards = 16;

    /**
     * First line of every segment this version writes. Files carrying it
     * are parsed strictly — every record must have a matching CRC, so a
     * record truncated before its tag can never masquerade as a CRC-less
     * legacy record with silently shortened values. Files without it
     * (committed legacy caches) keep the lax legacy parsing.
     */
    static constexpr const char *kFormatHeader = "#smtflex-cache-v2";

    /** Open (and load) the cache at @p path; empty path = in-memory only. */
    explicit ResultCache(std::string path);
    ~ResultCache();

    /**
     * Copy of a record, or nullopt when absent. Safe against concurrent
     * store() of any key (including an overwrite of this one).
     */
    std::optional<std::vector<double>> lookup(const std::string &key) const;

    /**
     * Pointer to a record; nullptr when absent. The pointer survives
     * concurrent insertion of other keys but NOT an overwrite of the same
     * key — prefer lookup() in concurrent code.
     */
    const std::vector<double> *find(const std::string &key) const;

    /** Insert a record and append it to the key's shard segment. Only
     * empty keys are rejected; every other key is escaped on disk. */
    void store(const std::string &key, const std::vector<double> &values);

    std::size_t size() const;
    const std::string &path() const { return path_; }

    /** Push every shard's appended records to stable storage: fsync each
     * open segment, then the cache's directory, so a segment created
     * since the last flush survives a power cut too. See checkpoint()
     * for the atomic full-snapshot variant. */
    void flush();

    /**
     * Atomically rewrite every shard segment as a full snapshot of its
     * in-memory entries: write `<segment>.tmp`, fsync it, rename it over
     * the segment and fsync the directory. A crash at any point leaves
     * either the old or the new segment, never a torn one.
     * @return whether every shard was persisted (failures are warned and
     * leave that shard's old segment in place).
     */
    bool checkpoint();

    /** Corrupt/partial lines skipped across all loads of this instance.
     * Surfaced by the serve `stats` op. */
    std::uint64_t corruptLinesSkipped() const
    {
        return corruptSkipped_.load(std::memory_order_relaxed);
    }

    /** Escape/unescape a key for the on-disk format (exposed for tests). */
    static std::string escapeKey(const std::string &key);
    static std::string unescapeKey(const std::string &escaped);

    /** Format one on-disk record line, CRC tag and trailing newline
     * included (exposed for tests). */
    static std::string formatRecord(const std::string &key,
                                    const std::vector<double> &values);

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::map<std::string, std::vector<double>> entries;
        int fd = -1; ///< lazily opened append descriptor
    };

    std::size_t shardOf(const std::string &key) const;
    std::string shardPath(std::size_t index) const;
    void loadFile(const std::string &file_path);
    void load();
    /** Append @p record to the shard's segment, healing short writes.
     * Caller holds the shard mutex. */
    void appendRecord(Shard &shard, std::size_t index,
                      const std::string &record);

    std::string path_;
    bool fsyncEachStore_ = false;
    std::array<std::unique_ptr<Shard>, kNumShards> shards_;
    std::atomic<std::uint64_t> corruptSkipped_{0};
};

} // namespace smtflex

#endif // SMTFLEX_STUDY_RESULT_CACHE_H
