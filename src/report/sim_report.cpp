#include "sim_report.h"

#include <iomanip>

#include "report/csv.h"
#include "sim/power_summary.h"

namespace smtflex {

namespace {

/** missRate()/avg-latency idiom over snapshot counters: num/den as a
 * double, 0 when the denominator is 0 (same expression the stats structs
 * used, so the doubles are bit-identical). */
double
perUnit(const telemetry::Snapshot &metrics, const std::string &num,
        const std::string &den)
{
    const std::uint64_t d = metrics.u64(den);
    return d ? static_cast<double>(metrics.u64(num)) / d : 0.0;
}

double
cacheMissRate(const telemetry::Snapshot &metrics, const std::string &prefix)
{
    return perUnit(metrics, prefix + ".misses", prefix + ".accesses");
}

} // namespace

void
writeTextReport(std::ostream &out, const SimResult &result,
                const PowerModel &power)
{
    const telemetry::Snapshot metrics = resultMetrics(result);
    const Cycle chip_cycles = metrics.u64("chip.cycles");
    const double freq_ghz = metrics.at("chip.freq_ghz").asDouble();
    const double seconds =
        static_cast<double>(chip_cycles) / (freq_ghz * 1e9);

    out << "=== smtflex simulation report: "
        << metrics.at("chip.config").asString() << " ===\n";
    out << "cycles: " << chip_cycles << " (" << std::setprecision(4)
        << seconds * 1e6 << " us @ " << freq_ghz << " GHz)\n";
    if (metrics.at("chip.hit_cycle_limit").asBool())
        out << "WARNING: run hit the cycle limit\n";

    out << "\nthreads (" << result.threads.size() << "):\n";
    for (const auto &t : result.threads) {
        out << "  " << std::left << std::setw(14) << t.benchmark
            << std::right << " ipc " << std::fixed << std::setprecision(3)
            << t.ipc() << (t.finished ? "" : "  [unfinished]") << "\n";
        out.unsetf(std::ios::fixed);
    }

    out << "\ncores (" << result.cores.size() << "):\n";
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
        const std::string prefix = "core." + std::to_string(i);
        const double cycles = static_cast<double>(
            std::max<Cycle>(metrics.u64(prefix + ".core_cycles"), 1));
        out << "  core" << i << " (" << result.cores[i].params.name
            << "): retired " << metrics.u64(prefix + ".retired") << ", ipc "
            << std::fixed << std::setprecision(3)
            << metrics.u64(prefix + ".retired") / cycles << ", busy "
            << metrics.u64(prefix + ".busy_cycles") / cycles << ", l1d miss "
            << cacheMissRate(metrics, prefix + ".l1d") << ", l2 miss "
            << cacheMissRate(metrics, prefix + ".l2") << "\n";
        out.unsetf(std::ios::fixed);
    }

    const PowerSummary gated = summarisePower(result, power, true);
    out << "\nshared: llc miss " << std::fixed << std::setprecision(3)
        << cacheMissRate(metrics, "llc") << ", dram reads "
        << metrics.u64("dram.reads") << ", writes "
        << metrics.u64("dram.writes") << ", avg read latency "
        << std::setprecision(1)
        << perUnit(metrics, "dram.total_latency_cycles", "dram.reads")
        << "\n";
    out << "power (gated): " << gated.avgPowerW << " W, energy "
        << std::scientific << std::setprecision(2) << gated.energyJ
        << " J\n";
    out.unsetf(std::ios::scientific);
    out.unsetf(std::ios::fixed);
}

void
writeThreadCsv(std::ostream &out, const SimResult &result)
{
    CsvWriter csv(out, {"config", "thread", "benchmark", "budget",
                        "start_cycle", "finish_cycle", "ipc", "finished"});
    for (std::size_t i = 0; i < result.threads.size(); ++i) {
        const auto &t = result.threads[i];
        csv.beginRow()
            .add(result.configName)
            .add(static_cast<std::uint64_t>(i))
            .add(t.benchmark)
            .add(static_cast<std::uint64_t>(t.budget))
            .add(static_cast<std::uint64_t>(t.startCycle))
            .add(static_cast<std::uint64_t>(
                t.finished ? t.finishCycle : 0))
            .add(t.ipc())
            .add(std::string(t.finished ? "1" : "0"))
            .done();
    }
}

void
writeCoreCsv(std::ostream &out, const SimResult &result,
             const PowerModel &power)
{
    const telemetry::Snapshot metrics = resultMetrics(result);
    CsvWriter csv(out, {"config", "core", "type", "retired", "core_cycles",
                        "busy_frac", "l1i_miss", "l1d_miss", "l2_miss",
                        "powered_frac", "static_w", "dynamic_j"});
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
        const auto &core = result.cores[i];
        const std::string prefix = "core." + std::to_string(i);
        const double cycles = static_cast<double>(
            std::max<Cycle>(metrics.u64(prefix + ".core_cycles"), 1));
        const double total = static_cast<double>(
            std::max<Cycle>(metrics.u64("chip.cycles"), 1));
        csv.beginRow()
            .add(metrics.at("chip.config").asString())
            .add(static_cast<std::uint64_t>(i))
            .add(std::string(coreTypeTag(core.params.type)))
            .add(metrics.u64(prefix + ".retired"))
            .add(metrics.u64(prefix + ".core_cycles"))
            .add(metrics.u64(prefix + ".busy_cycles") / cycles)
            .add(cacheMissRate(metrics, prefix + ".l1i"))
            .add(cacheMissRate(metrics, prefix + ".l1d"))
            .add(cacheMissRate(metrics, prefix + ".l2"))
            .add(metrics.u64(prefix + ".powered_cycles") / total)
            .add(power.coreStaticW(core.params))
            .add(power.coreDynamicJ(core.params, core.stats))
            .done();
    }
}

} // namespace smtflex
