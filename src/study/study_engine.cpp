#include "study_engine.h"

#include <cmath>
#include <sstream>

#include "common/env.h"
#include "common/log.h"
#include "exec/parallel.h"
#include "metrics/metrics.h"
#include "sim/power_summary.h"
#include "trace/spec_profiles.h"
#include "workload/parsec_runner.h"

namespace smtflex {

namespace {

/**
 * Fail loudly when the cached record under @p key holds fewer than the
 * @p want values its decoder reads. A CRC-less legacy line cut mid-values
 * loads as a shorter record; decoding it would read past its end, or
 * (inside a sweep row) silently drop a workload from the aggregate.
 */
void
requireWidth(const std::string &key, const std::vector<double> &values,
             std::size_t want, const char *qualifier = "")
{
    if (values.size() < want)
        fatal("StudyEngine: cached record '", key, "' holds ",
              values.size(), " value(s), expected ", qualifier, want);
}

/** The @p what field of cached record @p key as an integer below @p bound;
 * fatal() naming the key otherwise. */
std::uint32_t
requireIndex(const std::string &key, double value, std::uint32_t bound,
             const char *what)
{
    if (!(value >= 0.0 && value < bound) || value != std::floor(value))
        fatal("StudyEngine: cached record '", key, "' holds ", what, " ",
              value, ", expected an integer below ", bound);
    return static_cast<std::uint32_t>(value);
}

} // namespace

StudyOptions
StudyOptions::fromEnv()
{
    StudyOptions opts;
    opts.budget = envU64("SMTFLEX_BUDGET", opts.budget);
    opts.warmup = envU64("SMTFLEX_WARMUP", opts.warmup);
    opts.hetMixes = envU32("SMTFLEX_MIXES", opts.hetMixes);
    opts.seed = envU64("SMTFLEX_SEED", opts.seed);
    opts.cachePath = envString("SMTFLEX_CACHE", opts.cachePath);
    opts.fullSweep = envFlag("SMTFLEX_FULLSWEEP", opts.fullSweep);
    if (opts.budget == 0 || opts.hetMixes == 0)
        fatal("StudyOptions: budget and mixes must be positive");
    return opts;
}

StudyEngine::StudyEngine(StudyOptions options)
    : options_(std::move(options)), cache_(options_.cachePath)
{
}

ChipConfig
StudyEngine::configured(const ChipConfig &config) const
{
    return config.withBandwidth(options_.bandwidthGBps);
}

std::vector<std::uint32_t>
StudyEngine::sweepThreadCounts() const
{
    std::vector<std::uint32_t> counts;
    for (std::uint32_t n = 1; n <= options_.maxThreads; ++n) {
        if (options_.fullSweep || n <= 8 || n % 2 == 0)
            counts.push_back(n);
    }
    return counts;
}

std::uint32_t
StudyEngine::nearestSweepCount(std::uint32_t n) const
{
    if (options_.fullSweep || n <= 8 || n % 2 == 0)
        return n;
    // Odd counts above 8 round up to the next simulated even count.
    return std::min<std::uint32_t>(n + 1, options_.maxThreads);
}

std::string
StudyEngine::keyPrefix(const ChipConfig &config) const
{
    std::ostringstream os;
    os << config.name << ";smt" << (config.smtEnabled ? 1 : 0) << ";bw"
       << options_.bandwidthGBps << ";b" << options_.budget << ";w"
       << options_.warmup << ";s" << options_.seed;
    return os.str();
}

std::string
StudyEngine::isolationKey(const std::string &bench, CoreType type) const
{
    std::ostringstream key;
    key << "iso;" << bench << ";" << coreTypeTag(type) << ";b"
        << options_.budget << ";w" << options_.warmup << ";s"
        << options_.seed << ";bw" << options_.bandwidthGBps;
    return key.str();
}

std::vector<std::string>
StudyEngine::isolationCacheKeys() const
{
    std::vector<std::string> keys;
    for (const auto &bench : specBenchmarkNames()) {
        for (const CoreType type :
             {CoreType::kBig, CoreType::kMedium, CoreType::kSmall})
            keys.push_back(isolationKey(bench, type));
    }
    return keys;
}

std::vector<std::string>
StudyEngine::sweepRowCacheKeys(const ChipConfig &config,
                               const std::string &bench, bool het,
                               std::uint32_t n) const
{
    const std::string prefix = "mp;" + keyPrefix(config) + ";";
    std::vector<std::string> keys;
    if (!bench.empty()) {
        keys.push_back(prefix + homogeneousWorkload(bench, n).name);
    } else if (het && n > 1) {
        for (const auto &mix :
             heterogeneousWorkloads(n, options_.hetMixes, options_.seed))
            keys.push_back(prefix + mix.name);
    } else {
        for (const auto &b : specBenchmarkNames())
            keys.push_back(prefix + homogeneousWorkload(b, n).name);
    }
    return keys;
}

double
StudyEngine::isolatedIpc(const std::string &bench, CoreType type)
{
    const std::string key = isolationKey(bench, type);
    if (const auto hit = cache_.lookup(key)) {
        requireWidth(key, *hit, 1);
        return hit->at(0);
    }

    CoreParams core;
    switch (type) {
      case CoreType::kBig:
        core = CoreParams::big();
        break;
      case CoreType::kMedium:
        core = CoreParams::medium();
        break;
      case CoreType::kSmall:
        core = CoreParams::small();
        break;
    }
    ChipConfig solo = ChipConfig::homogeneous(
        std::string("iso_") + coreTypeTag(type), core, 1);
    solo = configured(solo);

    ChipSim chip(solo);
    const std::vector<ThreadSpec> specs = {
        {&benchProfileByName(bench), options_.budget, options_.warmup}};
    Placement placement;
    placement.entries = {{0, 0}};
    const SimResult result =
        chip.runMultiProgram(specs, placement, options_.seed);
    if (!result.threads[0].finished)
        fatal("isolatedIpc: ", bench, " never finished on ",
              coreTypeTag(type));
    const double ipc = result.threads[0].ipc();
    cache_.store(key, {ipc});
    return ipc;
}

const OfflineProfile &
StudyEngine::offline()
{
    std::call_once(offlineOnce_, [this] {
        const auto &benches = specBenchmarkNames();
        struct Row
        {
            double big = 0.0, medium = 0.0, small = 0.0;
        };
        // The 12 x 3 isolated characterisation runs are independent; fan
        // them out and fill the table in deterministic order afterwards.
        const auto rows = exec::map(benches.size(), [&](std::size_t i) {
            Row row;
            row.big = isolatedIpc(benches[i], CoreType::kBig);
            row.medium = isolatedIpc(benches[i], CoreType::kMedium);
            row.small = isolatedIpc(benches[i], CoreType::kSmall);
            return row;
        });
        for (std::size_t i = 0; i < benches.size(); ++i) {
            offline_.set(benches[i], CoreType::kBig, rows[i].big);
            offline_.set(benches[i], CoreType::kMedium, rows[i].medium);
            offline_.set(benches[i], CoreType::kSmall, rows[i].small);
        }
    });
    return offline_;
}

RunMetrics
StudyEngine::runPlacement(const ChipConfig &chip_config,
                          const std::vector<ThreadSpec> &specs,
                          const Placement &placement)
{
    ChipSim chip(chip_config);
    const SimResult result =
        chip.runMultiProgram(specs, placement, options_.seed);

    std::vector<double> isolated;
    isolated.reserve(specs.size());
    for (const auto &spec : specs)
        isolated.push_back(isolatedIpc(spec.profile->name, CoreType::kBig));

    RunMetrics metrics;
    metrics.stp = systemThroughput(result, isolated);
    metrics.antt = avgNormalisedTurnaround(result, isolated);
    metrics.powerGatedW = summarisePower(result, power_, true).avgPowerW;
    metrics.powerUngatedW = summarisePower(result, power_, false).avgPowerW;
    metrics.cycles = static_cast<double>(result.cycles);
    metrics.hitLimit = result.hitCycleLimit;
    return metrics;
}

RunMetrics
StudyEngine::runMultiprogramUncached(const ChipConfig &config,
                                     const MultiProgramWorkload &workload)
{
    const ChipConfig chip_config = configured(config);
    const std::vector<ThreadSpec> specs =
        workload.specs(options_.budget, options_.warmup);
    const Placement placement =
        scheduleOffline(chip_config, specs, offline());
    return runPlacement(chip_config, specs, placement);
}

RunMetrics
StudyEngine::decodeRunMetrics(const std::string &key,
                              const std::vector<double> &values)
{
    requireWidth(key, values, 6);
    RunMetrics m;
    m.stp = values.at(0);
    m.antt = values.at(1);
    m.powerGatedW = values.at(2);
    m.powerUngatedW = values.at(3);
    m.cycles = values.at(4);
    m.hitLimit = values.at(5) != 0.0;
    return m;
}

std::vector<double>
StudyEngine::encodeRunMetrics(const RunMetrics &m)
{
    return {m.stp,   m.antt,   m.powerGatedW, m.powerUngatedW,
            m.cycles, m.hitLimit ? 1.0 : 0.0};
}

RunMetrics
StudyEngine::multiprogram(const ChipConfig &config,
                          const MultiProgramWorkload &workload)
{
    const std::string key = "mp;" + keyPrefix(config) + ";" + workload.name;
    if (const auto hit = cache_.lookup(key))
        return decodeRunMetrics(key, *hit);
    const RunMetrics m = runMultiprogramUncached(config, workload);
    cache_.store(key, encodeRunMetrics(m));
    return m;
}

RunMetrics
StudyEngine::multiprogramNaive(const ChipConfig &config,
                               const MultiProgramWorkload &workload)
{
    const std::string key =
        "mpn;" + keyPrefix(config) + ";" + workload.name;
    if (const auto hit = cache_.lookup(key))
        return decodeRunMetrics(key, *hit);
    const ChipConfig chip_config = configured(config);
    const std::vector<ThreadSpec> specs =
        workload.specs(options_.budget, options_.warmup);
    const RunMetrics m = runPlacement(
        chip_config, specs, scheduleNaive(chip_config, specs.size()));
    cache_.store(key, encodeRunMetrics(m));
    return m;
}

online::OnlineOptions
StudyEngine::onlineOptions(const std::string &policy) const
{
    online::OnlineOptions opts;
    opts.policy = policy;
    // Short sample quanta by design: a quarter of the study budget (the
    // whole point of the online path is deciding from less evidence than
    // the oracle's full characterisation runs).
    opts.profiler.sampleBudget =
        std::max<InstrCount>(1'000, options_.budget / 4);
    opts.profiler.sampleWarmup = options_.warmup / 3;
    opts.profiler.seed = options_.seed;
    opts.profiler.bandwidthGBps = options_.bandwidthGBps;
    return opts;
}

PlacementDecision
StudyEngine::decidePlacement(const ChipConfig &config,
                             const MultiProgramWorkload &workload,
                             const std::string &policy)
{
    const std::string key =
        "ol;" + policy + ";" + keyPrefix(config) + ";" + workload.name;
    if (const auto hit = cache_.lookup(key)) {
        // Callers index the workload, the design and the class names with
        // these fields: a record that does not fit them fails here.
        const std::vector<double> &v = *hit;
        requireWidth(key, v, 8);
        const std::size_t n = workload.size();
        if (v.at(7) != static_cast<double>(n))
            fatal("StudyEngine: cached record '", key, "' places ", v.at(7),
                  " thread(s), expected ", n);
        requireWidth(key, v, 8 + 3 * n);
        PlacementDecision d;
        d.predictedStp = v.at(0);
        d.predictedAntt = v.at(1);
        d.epochs = static_cast<std::uint32_t>(v.at(2));
        d.migrations = v.at(3);
        d.reclassifications = v.at(4);
        d.quantaSampled = v.at(5);
        d.samplesRun = v.at(6);
        constexpr auto kClasses =
            static_cast<std::uint32_t>(online::ThreadClass::kIlpBound) + 1;
        for (std::size_t t = 0; t < n; ++t) {
            Placement::Entry entry;
            entry.core =
                requireIndex(key, v.at(8 + 3 * t), config.numCores(), "core");
            entry.slot = requireIndex(key, v.at(9 + 3 * t),
                                      config.contextsOf(entry.core), "slot");
            d.placement.entries.push_back(entry);
            d.classes.push_back(static_cast<online::ThreadClass>(
                requireIndex(key, v.at(10 + 3 * t), kClasses, "class")));
        }
        return d;
    }

    const ChipConfig chip_config = configured(config);
    const std::vector<ThreadSpec> specs =
        workload.specs(options_.budget, options_.warmup);
    const online::OnlineScheduler scheduler(onlineOptions(policy),
                                            &schedStats_);
    const online::OnlineDecision decision =
        scheduler.decide(chip_config, specs);

    PlacementDecision d;
    d.placement = decision.placement;
    d.classes.reserve(decision.profile.threads.size());
    for (const auto &thread : decision.profile.threads)
        d.classes.push_back(thread.klass);
    d.predictedStp = decision.predictedStp;
    d.predictedAntt = decision.predictedAntt;
    d.epochs = decision.epochs;
    d.migrations = static_cast<double>(decision.migrations);
    d.reclassifications = static_cast<double>(decision.reclassifications);
    d.quantaSampled = static_cast<double>(decision.quantaSampled);
    d.samplesRun = static_cast<double>(decision.samplesRun);

    std::vector<double> record = {
        d.predictedStp,
        d.predictedAntt,
        static_cast<double>(d.epochs),
        d.migrations,
        d.reclassifications,
        d.quantaSampled,
        d.samplesRun,
        static_cast<double>(d.placement.entries.size())};
    for (std::size_t t = 0; t < d.placement.entries.size(); ++t) {
        record.push_back(
            static_cast<double>(d.placement.entries[t].core));
        record.push_back(
            static_cast<double>(d.placement.entries[t].slot));
        record.push_back(
            static_cast<double>(static_cast<int>(d.classes[t])));
    }
    cache_.store(key, record);
    return d;
}

ScheduleMetrics
StudyEngine::multiprogramOnline(const ChipConfig &config,
                                const MultiProgramWorkload &workload,
                                const std::string &policy)
{
    const std::string key =
        "olr;" + policy + ";" + keyPrefix(config) + ";" + workload.name;
    if (const auto hit = cache_.lookup(key)) {
        requireWidth(key, *hit, 8);
        ScheduleMetrics m;
        m.run = decodeRunMetrics(key, *hit);
        m.predictedStp = hit->at(6);
        m.predictedAntt = hit->at(7);
        return m;
    }
    const PlacementDecision decision =
        decidePlacement(config, workload, policy);
    const ChipConfig chip_config = configured(config);
    const std::vector<ThreadSpec> specs =
        workload.specs(options_.budget, options_.warmup);
    ScheduleMetrics m;
    m.run = runPlacement(chip_config, specs, decision.placement);
    m.predictedStp = decision.predictedStp;
    m.predictedAntt = decision.predictedAntt;
    std::vector<double> record = encodeRunMetrics(m.run);
    record.push_back(m.predictedStp);
    record.push_back(m.predictedAntt);
    cache_.store(key, record);
    return m;
}

namespace {

/** Aggregate per-workload metrics: harmonic mean for STP (a rate metric),
 * arithmetic means for the rest. Every workload counts: a failing one has
 * already failed the whole map. */
RunMetrics
aggregate(const std::vector<RunMetrics> &runs)
{
    std::vector<double> stp, antt, pg, pu, cycles;
    for (const RunMetrics &run : runs) {
        stp.push_back(run.stp);
        antt.push_back(run.antt);
        pg.push_back(run.powerGatedW);
        pu.push_back(run.powerUngatedW);
        cycles.push_back(run.cycles);
    }
    RunMetrics agg;
    agg.stp = harmonicMean(stp);
    agg.antt = arithmeticMean(antt);
    agg.powerGatedW = arithmeticMean(pg);
    agg.powerUngatedW = arithmeticMean(pu);
    agg.cycles = arithmeticMean(cycles);
    return agg;
}

} // namespace

RunMetrics
StudyEngine::homogeneousAt(const ChipConfig &config, std::uint32_t n)
{
    // Build the offline table before fanning out: its construction is
    // itself a parallel region, and prebuilding it means every parallel
    // workload run below hits the memoised table.
    offline();
    return aggregate(exec::mapItems(
        specBenchmarkNames(), [&](const std::string &bench) {
            return multiprogram(config, homogeneousWorkload(bench, n));
        }));
}

RunMetrics
StudyEngine::heterogeneousAt(const ChipConfig &config, std::uint32_t n)
{
    if (n == 1) {
        // A 1-thread "mix" is a single program; balanced sampling over the
        // 12 benchmarks is exactly one run of each.
        return homogeneousAt(config, 1);
    }
    offline();
    return aggregate(exec::mapItems(
        heterogeneousWorkloads(n, options_.hetMixes, options_.seed),
        [&](const MultiProgramWorkload &mix) {
            return multiprogram(config, mix);
        }));
}

RunMetrics
StudyEngine::sweepRow(const ChipConfig &config, const std::string &bench,
                      bool het, std::uint32_t n)
{
    if (!bench.empty())
        return multiprogram(config, homogeneousWorkload(bench, n));
    return het ? heterogeneousAt(config, n) : homogeneousAt(config, n);
}

ParsecMetrics
StudyEngine::runParsecUncached(const ChipConfig &config,
                               const std::string &bench,
                               std::uint32_t threads)
{
    const ChipConfig chip_config = configured(config);
    ParsecRunner runner(chip_config, parsecProfile(bench), threads,
                        options_.seed);
    const ParsecRunResult run = runner.run();

    ParsecMetrics metrics;
    metrics.roiCycles = static_cast<double>(run.roiCycles());
    metrics.totalCycles = static_cast<double>(run.totalCycles);
    metrics.powerGatedW = summarisePower(run.sim, power_, true).avgPowerW;
    metrics.completed = run.completed;
    metrics.roiActiveThreadFractions = run.roiActiveThreadFractions;
    return metrics;
}

ParsecMetrics
StudyEngine::parsec(const ChipConfig &config, const std::string &bench,
                    std::uint32_t threads)
{
    std::ostringstream key;
    key << "ps;" << keyPrefix(config) << ";" << bench << ";t" << threads;
    if (const auto hit = cache_.lookup(key.str())) {
        requireWidth(key.str(), *hit, 4, "at least ");
        ParsecMetrics m;
        m.roiCycles = hit->at(0);
        m.totalCycles = hit->at(1);
        m.powerGatedW = hit->at(2);
        m.completed = hit->at(3) != 0.0;
        m.roiActiveThreadFractions.assign(hit->begin() + 4, hit->end());
        return m;
    }
    const ParsecMetrics m = runParsecUncached(config, bench, threads);
    std::vector<double> record = {m.roiCycles, m.totalCycles, m.powerGatedW,
                                  m.completed ? 1.0 : 0.0};
    record.insert(record.end(), m.roiActiveThreadFractions.begin(),
                  m.roiActiveThreadFractions.end());
    cache_.store(key.str(), record);
    return m;
}

std::vector<std::uint32_t>
StudyEngine::parsecThreadCandidates(const ChipConfig &config) const
{
    std::vector<std::uint32_t> candidates;
    if (!config.smtEnabled) {
        // Without SMT: one thread per core (paper Section 5).
        candidates.push_back(config.numCores());
        return candidates;
    }
    const std::uint32_t contexts = config.totalContexts();
    for (std::uint32_t t = 4; t <= options_.maxThreads; t += 4) {
        if (t <= contexts)
            candidates.push_back(t);
    }
    // Also consider exactly one thread per core (the no-SMT sweet spot
    // remains available to an SMT chip).
    if (config.numCores() <= options_.maxThreads)
        candidates.push_back(config.numCores());
    return candidates;
}

double
StudyEngine::bestParsecCycles(const ChipConfig &config,
                              const std::string &bench, bool roi_only)
{
    const auto all = exec::mapItems(
        parsecThreadCandidates(config), [&](std::uint32_t t) {
            const ParsecMetrics m = parsec(config, bench, t);
            return roi_only ? m.roiCycles : m.totalCycles;
        });
    double best = 0.0;
    for (const double cycles : all) {
        if (cycles <= 0.0)
            continue;
        if (best == 0.0 || cycles < best)
            best = cycles;
    }
    if (best == 0.0)
        fatal("bestParsecCycles: no valid run for ", bench, " on ",
              config.name);
    return best;
}

} // namespace smtflex
