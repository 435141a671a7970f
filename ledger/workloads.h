/**
 * @file
 * The ledger's four workloads and the probes behind its per-layer
 * metrics. Each workload is a set of inputs generated from the workload
 * seed; runWorkload sets it up several times, repeats its unit of work for
 * the requested seconds, checks every output against a reference and, in
 * a traced run, measures the layers (see ledger/README.md).
 */

#ifndef SMTFLEX_LEDGER_WORKLOADS_H
#define SMTFLEX_LEDGER_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The committed seed cache; only ever copied, never opened. */
    std::string seedCache = "smtflex_cache.txt";
    /** Golden SimResult digests of sim-long. */
    std::string golden = "ledger/golden_sim_long.txt";
    /** Scratch directory (temp cache copies, cold caches). */
    std::string tmpDir;
    /** Where a traced run writes its spans. */
    std::string traceOut;
    /** Client connections of serve-warm. */
    unsigned connections = 1;
};

/** Everything one workload run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< first mismatches, for the log
    std::map<std::string, double> e2e;
    std::map<std::string, double> layers;
    std::map<std::string, std::string> info;

    /** Count one checked output; record @p what when it failed. */
    void expect(bool ok, const std::string &what);
};

/** Run one workload end to end; fills @p out. */
void runWorkload(const Options &options, Outcome &out);

/** Record golden digests for sim-long with fast-forward off. */
void recordGolden(const Options &options);

} // namespace ledger

#endif // SMTFLEX_LEDGER_WORKLOADS_H
