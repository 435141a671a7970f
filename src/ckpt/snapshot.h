/**
 * @file
 * smtflex::ckpt — the versioned, CRC-tagged snapshot envelope and its
 * atomic file I/O.
 *
 * On-disk layout (all little-endian):
 *
 *   u32 magic   'SFCK'
 *   u32 version (kSnapshotVersion; strict equality on load)
 *   u32 kind    (what the payload serializes; strict equality on load)
 *   str key     (the full resume key, echoed so hash collisions in the
 *                store's file names can never resurrect a foreign state)
 *   u64 cycle   (simulated cycle the state was captured at)
 *   blob meta   (cheap eligibility header, readable without the payload)
 *   blob payload(the component state stream)
 *   u32 crc     CRC-32 over every preceding byte
 *
 * Parsing is strict, cache-v2 style: a snapshot decodes whole or throws
 * CorruptSnapshot — truncation at *any* byte offset, a flipped bit, a
 * wrong version or kind all reject cleanly with zero partial restore.
 *
 * Files are written atomically (tmp + fsync + rename + parent-dir
 * fsync) so a crash mid-save leaves either the old snapshot or none.
 * The `ckpt.write` / `ckpt.load` fault seams make both failure paths
 * testable on demand.
 */

#ifndef SMTFLEX_CKPT_SNAPSHOT_H
#define SMTFLEX_CKPT_SNAPSHOT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/serial.h"

namespace smtflex {
namespace ckpt {

/** Current envelope version; bumped on any layout change. */
inline constexpr std::uint32_t kSnapshotVersion = 2;

/** What a snapshot's payload serializes. */
enum class SnapshotKind : std::uint32_t {
    kChipRun = 1, ///< ChipSim::runMultiProgram mid-run state
};

/** A decoded snapshot. */
struct Snapshot
{
    SnapshotKind kind = SnapshotKind::kChipRun;
    std::string key;
    std::uint64_t cycle = 0;
    std::vector<std::uint8_t> meta;
    std::vector<std::uint8_t> payload;
};

/** Serialize @p snap into its byte envelope (CRC included). */
std::vector<std::uint8_t> encodeSnapshot(const Snapshot &snap);

/** Strictly decode an envelope; throws CorruptSnapshot on any defect. */
Snapshot decodeSnapshot(const std::uint8_t *data, std::size_t size);

/**
 * Atomically persist @p snap at @p path. Returns false (after a warn)
 * when any step fails — a failed save never leaves a visible torn file
 * unless the `ckpt.write` fault seam deliberately tears it.
 */
bool writeSnapshotFile(const std::string &path, const Snapshot &snap);

/**
 * Load and decode the snapshot at @p path. Returns std::nullopt when
 * the file does not exist or cannot be read; throws CorruptSnapshot
 * when it exists but fails strict validation (the caller skips and
 * counts it). The `ckpt.load` fault seam turns a healthy file into a
 * CorruptSnapshot throw.
 */
std::optional<Snapshot> readSnapshotFile(const std::string &path);

} // namespace ckpt
} // namespace smtflex

#endif // SMTFLEX_CKPT_SNAPSHOT_H
