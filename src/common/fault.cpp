#include "fault.h"

#include <array>
#include <mutex>

#include "common/env.h"
#include "common/log.h"

namespace smtflex {
namespace fault {

namespace detail {

std::atomic<int> gState{kUninitialised};

} // namespace detail

namespace {

constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kCount);

constexpr std::array<const char *, kNumSites> kSiteNames = {
    "io.write",       "io.fsync",        "io.load",
    "net.short_read", "net.short_write", "net.eagain",
    "net.disconnect",
};

struct SiteState
{
    bool armed = false;
    double probability = 1.0;
    std::uint64_t seed = 1;
    std::uint64_t after = 0;
    std::uint64_t limit = 0;
    std::uint64_t param = 0;
    bool hasParam = false;
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> fires{0};
};

std::array<SiteState, kNumSites> gSites;
std::mutex gConfigMutex;
std::once_flag gEnvOnce;

SiteState &
stateOf(Site site)
{
    return gSites[static_cast<std::size_t>(site)];
}

/** SplitMix64: the k-th decision draw for (seed, site) — stateless, so
 * decisions depend only on per-site arrival order. */
double
decisionDraw(std::uint64_t seed, Site site, std::uint64_t k)
{
    std::uint64_t z = seed ^
        (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(site) + 1)) ^
        (k * 0xbf58476d1ce4e5b9ull);
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // 53 bits of mantissa -> uniform in [0, 1).
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

Site
siteFromName(const std::string &name)
{
    for (std::size_t i = 0; i < kNumSites; ++i) {
        if (name == kSiteNames[i])
            return static_cast<Site>(i);
    }
    fatal("SMTFLEX_FAULT: unknown site '", name, "'");
}

/** Parse one `site[:k=v[;k=v...]]` spec into its site's state. */
void
applySiteSpec(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    SiteState &state = stateOf(siteFromName(name));
    state.armed = true;
    state.probability = 1.0;
    state.seed = 1;
    state.after = 0;
    state.limit = 0;
    state.param = 0;
    state.hasParam = false;
    state.ops.store(0);
    state.fires.store(0);
    if (colon == std::string::npos)
        return;
    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        const std::size_t semi = rest.find(';', pos);
        const std::string kv = rest.substr(
            pos, semi == std::string::npos ? std::string::npos : semi - pos);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("SMTFLEX_FAULT: '", kv, "' in '", spec,
                  "' is not key=value");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        const std::string what = "SMTFLEX_FAULT " + name + ":" + key;
        if (key == "p") {
            state.probability = parseDouble(value, what);
            if (state.probability < 0.0 || state.probability > 1.0)
                fatal(what, ": probability ", value, " not in [0, 1]");
        } else if (key == "seed") {
            state.seed = parseU64(value, what);
        } else if (key == "after") {
            state.after = parseU64(value, what);
        } else if (key == "limit") {
            state.limit = parseU64(value, what);
        } else if (key == "param") {
            state.param = parseU64(value, what);
            state.hasParam = true;
        } else {
            fatal("SMTFLEX_FAULT: unknown key '", key, "' for site '", name,
                  "'");
        }
        if (semi == std::string::npos)
            break;
        pos = semi + 1;
    }
}

/** Re-derive the armed/disarmed fast-path flag. Caller holds gConfigMutex. */
void
publishState()
{
    for (const SiteState &state : gSites) {
        if (state.armed) {
            detail::gState.store(detail::kArmed, std::memory_order_release);
            return;
        }
    }
    detail::gState.store(detail::kDisarmed, std::memory_order_release);
}

void
configureLocked(const std::string &spec)
{
    for (SiteState &state : gSites) {
        state.armed = false;
        state.ops.store(0);
        state.fires.store(0);
    }
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string one = spec.substr(
            pos,
            comma == std::string::npos ? std::string::npos : comma - pos);
        if (one.empty())
            fatal("SMTFLEX_FAULT: empty site spec in '", spec, "'");
        applySiteSpec(one);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    publishState();
}

void
loadEnvOnce()
{
    std::call_once(gEnvOnce, [] {
        std::lock_guard<std::mutex> lock(gConfigMutex);
        if (detail::gState.load(std::memory_order_acquire) !=
            detail::kUninitialised)
            return; // configure() ran first; it wins
        configureLocked(envString("SMTFLEX_FAULT", ""));
    });
}

} // namespace

const char *
siteName(Site site)
{
    return kSiteNames[static_cast<std::size_t>(site)];
}

void
configure(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(gConfigMutex);
    configureLocked(spec);
}

void
reset()
{
    configure("");
}

std::uint64_t
fires(Site site)
{
    return stateOf(site).fires.load(std::memory_order_relaxed);
}

std::uint64_t
ops(Site site)
{
    return stateOf(site).ops.load(std::memory_order_relaxed);
}

std::uint64_t
param(Site site, std::uint64_t fallback)
{
    const SiteState &state = stateOf(site);
    return state.armed && state.hasParam ? state.param : fallback;
}

namespace detail {

bool
shouldFireSlow(Site site)
{
    loadEnvOnce();
    if (gState.load(std::memory_order_acquire) != kArmed)
        return false;
    SiteState &state = stateOf(site);
    if (!state.armed)
        return false;
    const std::uint64_t k =
        state.ops.fetch_add(1, std::memory_order_relaxed);
    if (k < state.after)
        return false;
    if (state.limit != 0 &&
        state.fires.load(std::memory_order_relaxed) >= state.limit)
        return false;
    if (decisionDraw(state.seed, site, k) >= state.probability)
        return false;
    state.fires.fetch_add(1, std::memory_order_relaxed);
    return true;
}

} // namespace detail

} // namespace fault
} // namespace smtflex
