#include "commands.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "common/log.h"
#include "exec/parallel.h"
#include "metrics/metrics.h"
#include "online/online_policy.h"
#include "online/online_profile.h"
#include "report/sim_report.h"
#include "sched/scheduler.h"
#include "sim/chip_sim.h"
#include "sim/power_summary.h"
#include "study/design_space.h"
#include "trace/spec_profiles.h"
#include "workload/multiprogram.h"

namespace smtflex {
namespace serve {

namespace {

/** printf-append onto a std::string (the renderers reproduce the CLI's
 * printf formatting byte for byte). */
void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed > 0) {
        const std::size_t old = out.size();
        out.resize(old + static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(out.data() + old, static_cast<std::size_t>(needed) + 1,
                       fmt, args);
        out.resize(old + static_cast<std::size_t>(needed));
    }
    va_end(args);
}

bool
knownBenchmark(const std::string &name)
{
    // Anything specProfile() resolves (selected or extended suite) is
    // valid, matching what the CLI always accepted.
    for (const auto &known : specAllBenchmarkNames()) {
        if (known == name)
            return true;
    }
    return false;
}

bool
knownMixableBenchmark(const std::string &name)
{
    // schedule mixes accept PARSEC worker kernels alongside SPEC.
    for (const auto &known : mixableBenchmarkNames()) {
        if (known == name)
            return true;
    }
    return false;
}

} // namespace

ChipConfig
buildDesign(const std::string &name, bool no_smt, bool has_bw, double bw,
            bool prefetch)
{
    ChipConfig cfg;
    bool found = false;
    for (const auto &known : paperDesignNames()) {
        if (known == name) {
            cfg = paperDesign(name);
            found = true;
        }
    }
    for (const auto &known : alternativeDesignNames()) {
        if (known == name) {
            cfg = alternativeDesign(name);
            found = true;
        }
    }
    if (!found)
        fatal("unknown design '", name, "' (see `smtflex designs`)");
    if (no_smt)
        cfg = cfg.withSmt(false);
    if (has_bw)
        cfg = cfg.withBandwidth(bw);
    if (prefetch) {
        for (auto &core : cfg.cores)
            core.dataPrefetch = true;
    }
    return cfg;
}

void
validateRun(const RunRequest &req)
{
    buildDesign(req.design, req.noSmt, req.hasBw, req.bw, req.prefetch);
    if (req.workload.empty())
        fatal("run: --workload bench1,bench2,... required");
    for (const auto &bench : req.workload) {
        if (!knownBenchmark(bench))
            fatal("run: unknown benchmark '", bench,
                  "' (see `smtflex benchmarks`)");
    }
    if (req.budget == 0)
        fatal("run: budget must be positive");
    if (!req.report.empty() && req.report != "text" &&
        req.report != "csv-threads" && req.report != "csv-cores")
        fatal("unknown --report kind '", req.report, "'");
}

void
validateSweep(const SweepRequest &req)
{
    buildDesign(req.design, req.noSmt, req.hasBw, req.bw, false);
    if (!req.bench.empty() && !knownBenchmark(req.bench))
        fatal("sweep: unknown benchmark '", req.bench,
              "' (see `smtflex benchmarks`)");
    if (!req.bench.empty() && req.het)
        fatal("sweep: --bench and --het are mutually exclusive");
}

void
validateIsolated(const IsolatedRequest &req)
{
    for (const auto &bench : req.benches) {
        if (!knownBenchmark(bench))
            fatal("isolated: unknown benchmark '", bench,
                  "' (see `smtflex benchmarks`)");
    }
}

void
validateSchedule(const ScheduleRequest &req)
{
    buildDesign(req.design, req.noSmt, req.hasBw, req.bw, false);
    if (req.benchmarks.empty())
        fatal("schedule: --benchmarks bench1,bench2,... required");
    for (const auto &bench : req.benchmarks) {
        if (!knownMixableBenchmark(bench))
            fatal("schedule: unknown benchmark '", bench,
                  "' (SPEC or PARSEC kernel; see `smtflex benchmarks`)");
    }
    if (!online::isOnlinePolicy(req.policy)) {
        std::string known;
        for (const auto &name : online::onlinePolicyNames())
            known += (known.empty() ? "" : ", ") + name;
        fatal("schedule: unknown policy '", req.policy, "' (expected ",
              known, ")");
    }
}

std::string
runText(StudyEngine &engine, const RunRequest &req)
{
    validateRun(req);
    const ChipConfig cfg =
        buildDesign(req.design, req.noSmt, req.hasBw, req.bw, req.prefetch);

    MultiProgramWorkload workload;
    workload.name = "cli";
    for (const auto &bench : req.workload)
        workload.programs.push_back(&specProfile(bench));
    const auto specs = workload.specs(req.budget, req.warmup);

    const Placement placement = req.naiveSched
        ? scheduleNaive(cfg, specs.size())
        : scheduleOffline(cfg, specs, engine.offline());

    ChipSim chip(cfg);
    const SimResult result = chip.runMultiProgram(specs, placement, req.seed);

    std::vector<double> isolated;
    for (const auto &spec : specs)
        isolated.push_back(engine.isolatedIpc(spec.profile->name,
                                              CoreType::kBig));

    std::string out;
    appendf(out, "design %s, %zu programs, %llu cycles (%.2f us)\n\n",
            cfg.name.c_str(), specs.size(),
            static_cast<unsigned long long>(result.cycles),
            result.seconds() * 1e6);
    appendf(out, "%-12s %6s %6s %10s %10s\n", "program", "core", "slot",
            "IPC", "norm.prog");
    const auto np = normalisedProgress(result, isolated);
    for (std::size_t i = 0; i < result.threads.size(); ++i) {
        appendf(out, "%-12s %6u %6u %10.3f %10.3f\n",
                result.threads[i].benchmark.c_str(),
                placement.entries[i].core, placement.entries[i].slot,
                result.threads[i].ipc(), np[i]);
    }
    appendf(out, "\nSTP %.3f | ANTT %.3f\n",
            systemThroughput(result, isolated),
            avgNormalisedTurnaround(result, isolated));
    if (req.report == "text") {
        std::ostringstream os;
        writeTextReport(os, result, engine.powerModel());
        appendf(out, "\n%s", os.str().c_str());
    } else if (req.report == "csv-threads") {
        std::ostringstream os;
        writeThreadCsv(os, result);
        appendf(out, "\n%s", os.str().c_str());
    } else if (req.report == "csv-cores") {
        std::ostringstream os;
        writeCoreCsv(os, result, engine.powerModel());
        appendf(out, "\n%s", os.str().c_str());
    }
    const PowerSummary power =
        summarisePower(result, engine.powerModel(), true);
    appendf(out,
            "power %.1f W (cores %.1f static + %.1f dynamic, uncore "
            "%.1f) | energy %.2e J\n",
            power.avgPowerW, power.coreStaticW, power.coreDynamicW,
            power.uncoreW, power.energyJ);
    return out;
}

std::string
sweepText(StudyEngine &engine, const SweepRequest &req)
{
    validateSweep(req);
    const ChipConfig cfg =
        buildDesign(req.design, req.noSmt, req.hasBw, req.bw, false);

    std::string out;
    appendf(out, "%-8s %10s %10s %10s\n", "threads", "STP", "ANTT",
            "power(W)");
    for (const std::uint32_t n : engine.sweepRows(cfg)) {
        const RunMetrics m = engine.sweepRow(cfg, req.bench, req.het, n);
        appendf(out, "%-8u %10.3f %10.2f %10.1f\n", n, m.stp, m.antt,
                m.powerGatedW);
    }
    return out;
}

CacheRecords
sweepChunkRecords(StudyEngine &engine, const SweepRequest &req,
                  const std::vector<std::uint32_t> &rows)
{
    validateSweep(req);
    const ChipConfig cfg =
        buildDesign(req.design, req.noSmt, req.hasBw, req.bw, false);

    // Any computed row builds the full offline table as a side effect, so
    // the isolated characterisation records travel with every chunk.
    std::vector<std::string> keys = engine.isolationCacheKeys();
    const std::vector<std::uint32_t> sweep_rows = engine.sweepRows(cfg);
    for (const std::uint32_t n : rows) {
        if (std::find(sweep_rows.begin(), sweep_rows.end(), n) ==
            sweep_rows.end())
            continue;
        engine.sweepRow(cfg, req.bench, req.het, n);
        const auto row_keys =
            engine.sweepRowCacheKeys(cfg, req.bench, req.het, n);
        keys.insert(keys.end(), row_keys.begin(), row_keys.end());
    }

    CacheRecords records;
    std::unordered_set<std::string> seen;
    for (const auto &key : keys) {
        if (!seen.insert(key).second)
            continue;
        if (const auto hit = engine.resultCache().lookup(key))
            records.emplace_back(key, *hit);
    }
    return records;
}

std::string
isolatedText(StudyEngine &engine, const IsolatedRequest &req)
{
    validateIsolated(req);
    std::string out;
    appendf(out, "%-12s %8s %8s %8s %10s %10s\n", "bench", "big", "medium",
            "small", "big/med", "big/small");
    std::vector<std::string> benches = req.benches;
    if (benches.empty())
        benches = specBenchmarkNames();
    // Independent characterisation runs: fan out over the pool and render
    // in request order (same structure as the CLI always used).
    struct Row
    {
        double big = 0.0, medium = 0.0, small = 0.0;
    };
    const auto rows = exec::mapItems(benches, [&](const std::string &bench) {
        Row row;
        row.big = engine.isolatedIpc(bench, CoreType::kBig);
        row.medium = engine.isolatedIpc(bench, CoreType::kMedium);
        row.small = engine.isolatedIpc(bench, CoreType::kSmall);
        return row;
    });
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const Row &r = rows[i];
        appendf(out, "%-12s %8.3f %8.3f %8.3f %10.2f %10.2f\n",
                benches[i].c_str(), r.big, r.medium, r.small,
                r.big / r.medium, r.big / r.small);
    }
    return out;
}

std::string
scheduleText(StudyEngine &engine, const ScheduleRequest &req)
{
    validateSchedule(req);
    const ChipConfig cfg =
        buildDesign(req.design, req.noSmt, req.hasBw, req.bw, false);
    const MultiProgramWorkload mix = mixWorkload(req.benchmarks);
    const PlacementDecision decision =
        engine.decidePlacement(cfg, mix, req.policy);

    std::string out;
    appendf(out, "design %s, policy %s, %zu threads\n\n", cfg.name.c_str(),
            req.policy.c_str(), mix.size());
    appendf(out, "%-14s %-8s %6s %6s %-8s\n", "program", "class", "core",
            "slot", "type");
    for (std::size_t i = 0; i < mix.programs.size(); ++i) {
        const std::uint32_t core = decision.placement.entries[i].core;
        appendf(out, "%-14s %-8s %6u %6u %-8s\n",
                mix.programs[i]->name.c_str(),
                online::threadClassName(decision.classes[i]), core,
                decision.placement.entries[i].slot,
                coreTypeTag(cfg.cores[core].type));
    }
    appendf(out,
            "\npredicted STP %.3f | predicted ANTT %.3f\n"
            "epochs %u | migrations %.0f | reclassifications %.0f | "
            "quanta sampled %.0f | samples run %.0f\n",
            decision.predictedStp, decision.predictedAntt, decision.epochs,
            decision.migrations, decision.reclassifications,
            decision.quantaSampled, decision.samplesRun);
    return out;
}

} // namespace serve
} // namespace smtflex
