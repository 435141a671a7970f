/**
 * @file
 * smtflex::fault — deterministic, env-configured fault injection.
 *
 * Long campaigns treat interruption and partial progress as the normal
 * case; this module makes the failure paths *provable* by letting tests
 * (and operators) make I/O and sockets fail on demand. Seams are threaded
 * through the layers that talk to the outside world: ResultCache file
 * I/O and the serve socket loops. Each seam
 * asks shouldFire(Site) before the real operation and, when told to,
 * fails the way the real world would (a torn write, a 1-byte read, an
 * unreadable file).
 *
 * Configuration grammar (SMTFLEX_FAULT, or fault::configure in tests):
 *
 *   spec      := site-spec (',' site-spec)*
 *   site-spec := site (':' kv (';' kv)*)?
 *   kv        := 'p' '=' float       fire probability     (default 1.0)
 *              | 'seed' '=' u64      decision stream seed (default 1)
 *              | 'after' '=' u64     ops passed through before arming
 *              | 'limit' '=' u64     max fires, 0 = unlimited
 *              | 'param' '=' u64     site-specific magnitude (short-op
 *                                    byte clamp)
 *
 *   SMTFLEX_FAULT="io.write:p=0.01;seed=42,net.short_read:p=0.05"
 *
 * Determinism: the k-th decision at a site is a pure function of
 * (seed, site, k) — a counting hash, no shared RNG state — so a
 * single-threaded run replays exactly, and a multi-threaded run makes the
 * same decision sequence in per-site arrival order. Malformed specs are
 * fatal() naming the offending token.
 *
 * Overhead: with no site armed, shouldFire() is one relaxed atomic load
 * and a compare; nothing else is touched.
 */

#ifndef SMTFLEX_COMMON_FAULT_H
#define SMTFLEX_COMMON_FAULT_H

#include <atomic>
#include <cstdint>
#include <string>

namespace smtflex {
namespace fault {

/** Injection seams. Names on the wire: "io.write", "net.short_read", ... */
enum class Site : unsigned {
    kIoWrite,      ///< ResultCache record append: torn (prefix-only) write
    kIoFsync,      ///< ResultCache fsync/flush reports failure
    kIoLoad,       ///< ResultCache segment load behaves as unreadable
    kNetShortRead, ///< socket read clamped to `param` bytes (default 1)
    kNetShortWrite,///< socket write clamped to `param` bytes (default 1)
    kNetEagain,    ///< socket op behaves as EAGAIN (retried later)
    kNetDisconnect,///< connection torn down mid-frame
    kCount
};

/** Wire name of @p site ("io.write", ...). */
const char *siteName(Site site);

/**
 * Replace the whole configuration with @p spec (see the grammar above).
 * The empty string disarms every site. fatal() on malformed specs.
 * Counters of reconfigured sites restart from zero.
 */
void configure(const std::string &spec);

/** Disarm every site and zero all counters. */
void reset();

/** Fires so far at @p site (for tests and stats reporting). */
std::uint64_t fires(Site site);

/** Total ops observed at @p site (fired or not). */
std::uint64_t ops(Site site);

/** The site's configured `param`, or @p fallback when unset/unarmed. */
std::uint64_t param(Site site, std::uint64_t fallback);

namespace detail {

/** Tri-state so the first shouldFire() lazily reads SMTFLEX_FAULT. */
enum State : int { kUninitialised = 0, kDisarmed = 1, kArmed = 2 };
extern std::atomic<int> gState;

bool shouldFireSlow(Site site);

} // namespace detail

/**
 * The seam: true when the configured fault at @p site fires for this
 * operation. Near-zero cost when injection is disabled.
 */
inline bool
shouldFire(Site site)
{
    const int state = detail::gState.load(std::memory_order_acquire);
    if (state == detail::kDisarmed)
        return false;
    return detail::shouldFireSlow(site);
}

} // namespace fault
} // namespace smtflex

#endif // SMTFLEX_COMMON_FAULT_H
