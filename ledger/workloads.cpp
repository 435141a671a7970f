#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "oracle.h"
#include "sched/scheduler.h"
#include "serve/client.h"
#include "serve/commands.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sim/chip_sim.h"
#include "spans.h"
#include "study/design_space.h"
#include "study/study_engine.h"
#include "trace/spec_profiles.h"
#include "trace/tracegen.h"
#include "workload/multiprogram.h"
#include "workload/parsec.h"
#include "workload/parsec_runner.h"

namespace ledger {

using namespace smtflex;
namespace fs = std::filesystem;

void
Outcome::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

namespace {

// ---------------------------------------------------------------- helpers

/** The study knobs every workload pins (the seed cache's settings). */
StudyOptions
pinnedStudy(const std::string &cache_path)
{
    StudyOptions o;
    o.budget = 12'000;
    o.warmup = 3'000;
    o.seed = 12'345;
    o.hetMixes = 12;
    o.maxThreads = 24;
    o.bandwidthGBps = 8.0;
    o.fullSweep = false;
    o.cachePath = cache_path;
    return o;
}

/** Copy the committed seed cache to a fresh file under @p dir. */
std::string
seedCacheCopy(const Options &opt, const std::string &tag)
{
    const fs::path dir = fs::path(opt.tmpDir) / tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path copy = dir / "smtflex_cache.txt";
    fs::copy_file(opt.seedCache, copy);
    return copy.string();
}

/** A fresh, empty cache path under @p dir (for cold engines). */
std::string
coldCachePath(const Options &opt, const std::string &tag)
{
    const fs::path dir = fs::path(opt.tmpDir) / tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return (dir / "smtflex_cache.txt").string();
}

/**
 * The set-up of a cold study, timed: building @p design and a study
 * engine over an empty cache, as every cold unit does before it
 * simulates.
 */
double
coldEngineSetup(const Options &opt, const std::string &design,
                const std::string &tag)
{
    const std::string path = coldCachePath(opt, tag);
    const double t0 = nowSeconds();
    [[maybe_unused]] const ChipConfig cfg =
        serve::buildDesign(design, false, false, 8.0, false);
    auto engine = std::make_unique<StudyEngine>(pinnedStudy(path));
    const double seconds = nowSeconds() - t0;
    engine.reset();
    fs::remove_all(fs::path(path).parent_path());
    return seconds;
}

double
cpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Deterministic Fisher-Yates permutation of @p items from @p seed. */
template <typename T>
void
permute(std::vector<T> &items, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextRange(i)]);
}

/** Busy threads of the global pool: its workers plus the caller, which
 * helps in every join. */
unsigned
execThreads()
{
    return exec::ThreadPool::global().workerCount() + 1;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** A 48-bit output digest, exact as a double. */
double
digestValue(std::uint64_t digest)
{
    return static_cast<double>(digest >> 16);
}

std::uint64_t
textDigest(const std::string &text, std::uint64_t h = 1469598103934665603ULL)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

// ------------------------------------------------------- simulation probes

/** One multi-program simulation, fully specified. */
struct SimRun
{
    std::string name;
    ChipConfig config;
    std::vector<ThreadSpec> specs;
    Placement placement;
    std::uint64_t seed = 0;
};

std::vector<ChipSim::WarmSpec>
warmSpecsOf(const SimRun &run)
{
    // The specs runMultiProgram builds for its functional warmup.
    std::vector<ChipSim::WarmSpec> warm;
    for (std::uint32_t i = 0; i < run.specs.size(); ++i)
        warm.push_back({run.specs[i].profile, AddressSpace::forThread(i),
                        run.placement.entries[i].core});
    return warm;
}

/** Time warmAllCaches on a fresh chip; adds the installed line count. */
double
retimeWarmup(const ChipConfig &config,
             const std::vector<ChipSim::WarmSpec> &warm,
             std::uint64_t &lines)
{
    for (const auto &spec : warm) {
        TraceGenerator::forEachResidentLine(
            *spec.profile, spec.space, config.llc.sizeBytes,
            [&](Addr, bool) { ++lines; });
    }
    ChipSim chip(config);
    Span span("sim.warmAllCaches");
    const double t0 = nowSeconds();
    chip.warmAllCaches(warm);
    return nowSeconds() - t0;
}

/** Sums over simulations, reported as the sim/uarch/cache/xbar/dram
 * layer metrics. */
struct SimTotals
{
    double warmupSeconds = 0.0;
    double runSeconds = 0.0; ///< whole run calls (warmup included)
    double tickSeconds = 0.0;
    std::uint64_t tickCycles = 0;
    std::uint64_t warmLines = 0;
    std::uint64_t cycles = 0;
    std::uint64_t coreCycleSlots = 0; ///< cores x cycles
    std::uint64_t ffCycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t robStalls = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0;
    std::uint64_t xbarRequests = 0, xbarQueueCycles = 0;
    std::uint64_t dramReads = 0, dramBusBusy = 0;
    std::uint64_t digest = 1469598103934665603ULL;

    void add(const SimResult &r, std::uint64_t ff_cycles)
    {
        cycles += r.cycles;
        coreCycleSlots += r.cycles * r.cores.size();
        ffCycles += ff_cycles;
        for (const CoreResult &c : r.cores) {
            retired += c.stats.retired;
            robStalls += c.stats.robStallEvents;
            mshrStalls += c.stats.mshrStallEvents;
            l1dAccesses += c.l1d.accesses;
            l1dMisses += c.l1d.misses;
            l2Accesses += c.l2.accesses;
            l2Misses += c.l2.misses;
        }
        llcAccesses += r.llc.accesses;
        llcMisses += r.llc.misses;
        xbarRequests += r.xbar.requests;
        xbarQueueCycles += r.xbar.totalQueueCycles;
        dramReads += r.dram.reads;
        dramBusBusy += r.dram.busBusyCycles;
        digest = textDigest(hex64(simDigest(r)), digest);
    }

    void emit(Outcome &out) const
    {
        const double loop = runSeconds - warmupSeconds;
        out.layers["sim.warmup_s"] = warmupSeconds;
        out.layers["sim.warmup_lines"] = static_cast<double>(warmLines);
        out.layers["sim.loop_s"] = loop;
        out.layers["sim.ns_per_cycle"] = ratio(loop * 1e9, cycles);
        out.layers["sim.cycles"] = static_cast<double>(cycles);
        out.layers["sim.ff_fraction"] = ratio(ffCycles, coreCycleSlots);
        out.layers["sim.mips"] = ratio(retired, runSeconds * 1e6);
        out.layers["sim.tick_ns_per_cycle"] =
            ratio(tickSeconds * 1e9, tickCycles);
        out.layers["uarch.retired"] = static_cast<double>(retired);
        out.layers["uarch.ipc"] = ratio(retired, cycles);
        out.layers["uarch.rob_stall_events"] = static_cast<double>(robStalls);
        out.layers["uarch.mshr_stall_events"] =
            static_cast<double>(mshrStalls);
        out.layers["cache.l1d_miss_rate"] = ratio(l1dMisses, l1dAccesses);
        out.layers["cache.l2_miss_rate"] = ratio(l2Misses, l2Accesses);
        out.layers["cache.llc_miss_rate"] = ratio(llcMisses, llcAccesses);
        out.layers["xbar.queue_cycles_per_req"] =
            ratio(xbarQueueCycles, xbarRequests);
        out.layers["dram.reads"] = static_cast<double>(dramReads);
        out.layers["dram.bus_util"] = ratio(dramBusBusy, cycles);
        out.layers["digest.sim"] = digestValue(digest);
    }
};

/** Cycle cap of the strict per-cycle probe. */
constexpr Cycle kStrictProbeCycles = 400'000;

/**
 * Simulate @p runs directly (each on a fresh chip), re-time their warmup
 * on fresh chips, and time the first one again with fast-forward off
 * (every cycle ticked, capped) for the per-cycle cost.
 */
void
probeRuns(const std::vector<SimRun> &runs, SimTotals &totals)
{
    for (const SimRun &run : runs) {
        totals.warmupSeconds +=
            retimeWarmup(run.config, warmSpecsOf(run), totals.warmLines);
        ChipSim chip(run.config);
        const double t0 = nowSeconds();
        SimResult result;
        {
            Span span("sim.runMultiProgram");
            result = chip.runMultiProgram(run.specs, run.placement, run.seed);
        }
        totals.runSeconds += nowSeconds() - t0;
        totals.add(result, chip.fastForwardedCycles());
    }
    if (runs.empty())
        return;
    // The first run again, every cycle ticked: budgets too large to
    // finish, so it always stops at the cycle cap.
    SimRun first = runs.front();
    for (ThreadSpec &spec : first.specs)
        spec.budget = InstrCount{1} << 40;
    ChipSim strict(first.config);
    strict.setFastForward(false);
    RunLimits limits;
    limits.maxCycles = kStrictProbeCycles;
    const double t0 = nowSeconds();
    SimResult result;
    {
        Span span("sim.runMultiProgram.strict");
        result = strict.runMultiProgram(first.specs, first.placement,
                                        first.seed, limits);
    }
    std::uint64_t lines = 0;
    const double warm =
        retimeWarmup(first.config, warmSpecsOf(first), lines);
    totals.tickSeconds += nowSeconds() - t0 - warm;
    totals.tickCycles += result.cycles;
}

/** One generated op stream: a pure function of (profile, seed, thread). */
struct StreamKey
{
    const BenchmarkProfile *profile;
    std::uint64_t seed;
    std::uint32_t thread;
    bool operator<(const StreamKey &o) const
    {
        return std::tie(profile, seed, thread) <
            std::tie(o.profile, o.seed, o.thread);
    }
};

/** Keeps the replayed ops observable, so the replay is not optimised out. */
volatile std::uint64_t traceSink = 0;

/**
 * trace.ns_per_op: each distinct stream (up to kMaxStreams) replays kOps
 * ops through TraceGenerator::next. trace.stream_reuse: simulated threads
 * per distinct stream, @p threads listing every simulated thread's stream
 * (within one workload every thread has the same budget, so this is also
 * generated ops per distinct op).
 */
void
probeTrace(const std::vector<StreamKey> &threads, Outcome &out)
{
    const std::set<StreamKey> distinct(threads.begin(), threads.end());
    constexpr std::uint64_t kOps = 20'000;
    constexpr std::size_t kMaxStreams = 48;
    std::uint64_t ops = 0;
    std::uint64_t sink = 0;
    double seconds = 0.0;
    std::size_t n = 0;
    for (const StreamKey &key : distinct) {
        if (n++ == kMaxStreams)
            break;
        TraceGenerator gen(*key.profile, key.seed, key.thread,
                           AddressSpace::forThread(key.thread));
        Span span("trace.next");
        const double t0 = nowSeconds();
        for (std::uint64_t i = 0; i < kOps; ++i)
            sink += gen.next().addr;
        seconds += nowSeconds() - t0;
        ops += kOps;
    }
    out.layers["trace.ns_per_op"] = ratio(seconds * 1e9, ops);
    out.layers["trace.stream_reuse"] = ratio(threads.size(), distinct.size());
    traceSink = sink;
}

std::vector<StreamKey>
streamsOf(const std::vector<SimRun> &runs)
{
    std::vector<StreamKey> keys;
    for (const SimRun &run : runs) {
        for (std::uint32_t i = 0; i < run.specs.size(); ++i)
            keys.push_back({run.specs[i].profile, run.seed, i});
    }
    return keys;
}

// -------------------------------------------------------- serve universe

/** Cached sweeps: every (design, smt, kind) whose records are all in
 * @p engine's cache, so rendering it runs no simulation. */
std::vector<serve::SweepRequest>
cachedSweeps(StudyEngine &engine)
{
    std::vector<std::string> designs = paperDesignNames();
    for (const auto &name : alternativeDesignNames())
        designs.push_back(name);
    const auto present = [&](const std::vector<std::string> &keys) {
        for (const auto &key : keys) {
            if (!engine.resultCache().find(key))
                return false;
        }
        return true;
    };
    if (!present(engine.isolationCacheKeys()))
        return {};
    std::vector<serve::SweepRequest> out;
    for (const auto &design : designs) {
        for (const bool no_smt : {false, true}) {
            std::vector<std::pair<std::string, bool>> kinds = {{"", false},
                                                               {"", true}};
            for (const auto &bench : specBenchmarkNames())
                kinds.emplace_back(bench, false);
            for (const auto &[bench, het] : kinds) {
                serve::SweepRequest req;
                req.design = design;
                req.noSmt = no_smt;
                req.bench = bench;
                req.het = het;
                const ChipConfig cfg =
                    serve::buildDesign(design, no_smt, false, 8.0, false);
                bool ok = true;
                for (const std::uint32_t n : engine.sweepThreadCounts()) {
                    if (n > cfg.totalContexts())
                        break;
                    ok = ok &&
                        present(engine.sweepRowCacheKeys(cfg, bench, het, n));
                }
                if (ok)
                    out.push_back(req);
            }
        }
    }
    return out;
}

/** Cached schedule decisions (the `ol;` records of `mix:` workloads). */
std::vector<serve::ScheduleRequest>
cachedSchedules(const std::string &cache_file)
{
    std::vector<serve::ScheduleRequest> out;
    std::ifstream in(cache_file);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("ol;", 0) != 0)
            continue;
        const std::string key = line.substr(0, line.find('|'));
        std::vector<std::string> parts;
        std::stringstream ss(key);
        for (std::string part; std::getline(ss, part, ';');)
            parts.push_back(part);
        if (parts.size() < 9 || parts[8].rfind("mix:", 0) != 0 ||
            parts[3] != "smt1" || parts[4] != "bw8")
            continue;
        serve::ScheduleRequest req;
        req.policy = parts[1];
        req.design = parts[2];
        std::stringstream mix(parts[8].substr(4));
        for (std::string bench; std::getline(mix, bench, '+');)
            req.benchmarks.push_back(bench);
        out.push_back(req);
    }
    return out;
}

serve::Json
stringList(const std::vector<std::string> &items)
{
    serve::Json list = serve::Json::array();
    for (const auto &item : items)
        list.push(serve::Json::string(item));
    return list;
}

// ------------------------------------------------------------- workloads

/** The operations of one unit: (kind, seconds). */
using Ops = std::vector<std::pair<std::string, double>>;

class Workload
{
  public:
    explicit Workload(const Options &options) : opt_(options) {}
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the inputs and the references (the harness's own work,
     * untimed). */
    virtual void prepare() = 0;
    /** The program's own set-up, repeatable; returns its seconds
     * (setup_s). Harness work inside it, such as temp copies, is left
     * out. */
    virtual double setup() = 0;
    /** One unit of work; returns each operation's kind and seconds. */
    virtual Ops unit() = 0;
    /** Untimed bookkeeping after each unit (checking its outputs). */
    virtual void afterUnit() {}
    /** Units in one pass over the workload's inputs (a workload with
     * several runs one per unit). */
    virtual std::size_t unitsPerPass() const { return 1; }
    /** Whether each unit starts with all the process's threads on one
     * CPU (see runWorkload); false for a workload that needs every
     * CPU. */
    virtual bool oneCpuPerUnit() const { return true; }
    /** Check every output produced so far against its reference. */
    virtual void verify(Outcome &out) = 0;
    /** Per-layer metrics (traced runs only). */
    virtual void layers(Outcome &out) = 0;

  protected:
    const Options &opt_;
};

// ---- sweep-cold

class SweepCold : public Workload
{
  public:
    using Workload::Workload;

    bool oneCpuPerUnit() const override { return false; }

    void prepare() override
    {
        ref_ = std::make_unique<StudyEngine>(
            pinnedStudy(seedCacheCopy(opt_, "sweep-ref")));
        req_.design = "3B5s";
        req_.het = true;
        cfg_ = serve::buildDesign(req_.design, false, false, 8.0, false);
        const std::size_t before = ref_->resultCache().size();
        reference_ = serve::sweepText(*ref_, req_);
        if (ref_->resultCache().size() != before)
            throw std::runtime_error(
                "seed cache does not cover the 3B5s het sweep");
        rows_.clear();
        for (const std::uint32_t n : ref_->sweepThreadCounts()) {
            if (n <= cfg_.totalContexts())
                rows_.push_back(n);
        }
        // The seed orders the rows: the same work, submitted in another
        // order, so the per-row barriers fall differently.
        permute(rows_, opt_.seed);
        keys_ = ref_->isolationCacheKeys();
        for (const std::uint32_t n : rows_) {
            for (auto &key : ref_->sweepRowCacheKeys(cfg_, "", true, n))
                keys_.push_back(std::move(key));
        }
    }

    double setup() override
    {
        return coldEngineSetup(opt_, req_.design, "sweep-setup");
    }

    Ops unit() override
    {
        const std::string path =
            coldCachePath(opt_, "sweep-cold-" + std::to_string(units_));
        Ops ops;
        {
            StudyEngine engine(pinnedStudy(path));
            {
                Span span("study.offline");
                const double t0 = nowSeconds();
                engine.offline();
                offlineSeconds_ = nowSeconds() - t0;
            }
            for (const std::uint32_t n : rows_) {
                Span span("study.heterogeneousAt");
                const double t0 = nowSeconds();
                engine.heterogeneousAt(cfg_, n);
                ops.emplace_back("row" + std::to_string(n), nowSeconds() - t0);
            }
            {
                Span span("serve.sweepText");
                outputs_.push_back(serve::sweepText(engine, req_));
            }
            stores_ = engine.resultCache().size();
            Output records;
            for (const auto &key : keys_)
                records.emplace_back(key, engine.resultCache().lookup(key));
            records_.push_back(std::move(records));
        }
        fs::remove_all(fs::path(path).parent_path());
        ++units_;
        return ops;
    }

    void verify(Outcome &out) override
    {
        for (const std::string &text : outputs_) {
            const auto diff = textMismatch(reference_, text);
            out.expect(!diff, "sweep-cold rendering differs from the "
                              "seed-cache replay at " +
                           diff.value_or(""));
        }
        for (const Output &records : records_) {
            for (const auto &[key, values] : records) {
                const auto expected = ref_->resultCache().lookup(key);
                out.expect(values && expected &&
                               sameRecord(*expected, *values),
                           "record " + key + " differs from the seed cache");
            }
        }
        // Every unit renders the same sweep: the first one's text.
        out.layers["digest.output"] =
            digestValue(textDigest(outputs_.front()));
        out.layers["study.cache_stores"] = static_cast<double>(stores_);
        out.info["sweep.rows"] = std::to_string(rows_.size());
    }

    void layers(Outcome &out) override
    {
        out.layers["study.offline_s"] = offlineSeconds_;
        // Two mixes of the sweep re-simulated directly with the
        // engine's own placement, for the simulator-layer metrics.
        std::vector<SimRun> runs;
        const ChipConfig chip = ref_->configured(cfg_);
        for (const std::uint32_t n : {12u, 24u}) {
            const auto mix = heterogeneousWorkloads(n, 12, 12'345).front();
            SimRun run;
            run.name = mix.name;
            run.config = chip;
            run.specs = mix.specs(12'000, 3'000);
            run.placement = scheduleOffline(chip, run.specs, ref_->offline());
            run.seed = 12'345;
            runs.push_back(std::move(run));
        }
        SimTotals totals;
        probeRuns(runs, totals);
        totals.emit(out);

        // Every stream the sweep simulates: 36 isolated runs, the
        // one-thread row and the heterogeneous mixes.
        std::vector<StreamKey> streams;
        for (const auto &bench : specBenchmarkNames()) {
            const BenchmarkProfile *p = &benchProfileByName(bench);
            for (int copies = 0; copies < 4; ++copies)
                streams.push_back({p, 12'345, 0});
        }
        for (const std::uint32_t n : rows_) {
            if (n == 1)
                continue;
            for (const auto &mix : heterogeneousWorkloads(n, 12, 12'345)) {
                for (std::uint32_t i = 0; i < mix.size(); ++i)
                    streams.push_back({mix.programs[i], 12'345, i});
            }
        }
        probeTrace(streams, out);
    }

  private:
    using Output =
        std::vector<std::pair<std::string, std::optional<std::vector<double>>>>;

    std::unique_ptr<StudyEngine> ref_;
    serve::SweepRequest req_;
    ChipConfig cfg_;
    std::string reference_;
    std::vector<std::uint32_t> rows_;
    std::vector<std::string> keys_;
    std::vector<std::string> outputs_;
    std::vector<Output> records_;
    std::size_t stores_ = 0;
    double offlineSeconds_ = 0.0;
    unsigned units_ = 0;
};

// ---- sim-long

/** Budget of the long runs (twice the study budget). */
constexpr InstrCount kLongBudget = 24'000;
/** Simulation seed of the long runs (the study's). It is fixed because
 * the runs' host time differs by up to a third between simulation
 * seeds; the workload seed orders the runs. */
constexpr std::uint64_t kLongSeed = 12'345;

std::vector<SimRun>
longRuns(std::uint64_t sim_seed)
{
    std::vector<SimRun> runs;
    const auto add = [&](const std::string &design,
                         const MultiProgramWorkload &mix) {
        SimRun run;
        run.config = paperDesign(design);
        run.name = design + "/" + mix.name;
        run.specs = mix.specs(kLongBudget, 3'000);
        run.placement = scheduleNaive(run.config, run.specs.size());
        run.seed = sim_seed;
        runs.push_back(std::move(run));
    };
    add("4B", heterogeneousWorkloads(24, 12, 12'345).front());
    add("20s", homogeneousWorkload("mcf", 20));
    add("3B5s", heterogeneousWorkloads(12, 12, 12'345)[3]);
    return runs;
}

class SimLong : public Workload
{
  public:
    using Workload::Workload;

    void prepare() override
    {
        golden_.clear();
        std::ifstream in(opt_.golden);
        for (std::string line; std::getline(in, line);) {
            std::istringstream fields(line);
            std::string name, digest;
            std::uint64_t seed = 0;
            if (line.rfind('#', 0) != 0 && fields >> name >> seed >> digest &&
                seed == kLongSeed)
                golden_[name] = digest;
        }
        for (const SimRun &run : longRuns(kLongSeed)) {
            if (!golden_.count(run.name))
                throw std::runtime_error("no golden digest for " + run.name +
                                         " seed " +
                                         std::to_string(kLongSeed) + " in " +
                                         opt_.golden);
        }
    }

    /** The runs' designs, workloads and placements. */
    double setup() override
    {
        const double t0 = nowSeconds();
        runs_ = longRuns(kLongSeed);
        permute(runs_, opt_.seed);
        return nowSeconds() - t0;
    }

    std::size_t unitsPerPass() const override { return runs_.size(); }

    Ops unit() override
    {
        const SimRun &run = runs_[next_++ % runs_.size()];
        Span span("sim.runMultiProgram");
        const double t0 = nowSeconds();
        ChipSim chip(run.config);
        const SimResult result =
            chip.runMultiProgram(run.specs, run.placement, run.seed);
        const double dt = nowSeconds() - t0;
        digests_.emplace_back(run.name, hex64(simDigest(result)));
        return {{run.name, dt}};
    }

    void verify(Outcome &out) override
    {
        for (const auto &[name, digest] : digests_) {
            out.expect(golden_.at(name) == digest,
                       "sim-long " + name + " digest " + digest +
                           " != golden " + golden_.at(name));
        }
        // The first pass's digests, in the order the seed gave the runs.
        std::uint64_t h = 1469598103934665603ULL;
        for (std::size_t i = 0; i < runs_.size(); ++i)
            h = textDigest(digests_.at(i).second, h);
        out.layers["digest.output"] = digestValue(h);
        out.layers["study.cache_stores"] = 0.0;
    }

    void layers(Outcome &out) override
    {
        SimTotals totals;
        probeRuns(runs_, totals);
        totals.emit(out);
        probeTrace(streamsOf(runs_), out);
    }

  private:
    std::vector<SimRun> runs_;
    std::size_t next_ = 0;
    std::map<std::string, std::string> golden_;
    std::vector<std::pair<std::string, std::string>> digests_;
};

// ---- parsec-tick

/** ParsecRunner's private shared-segment base (workload/parsec_runner.cpp),
 * mirrored to rebuild its warmup specs. */
constexpr Addr kParsecSharedBase = Addr{1} << 35;
constexpr std::uint32_t kParsecThreads = 4;

class ParsecTick : public Workload
{
  public:
    using Workload::Workload;

    void prepare() override
    {
        ref_ = std::make_unique<StudyEngine>(
            pinnedStudy(seedCacheCopy(opt_, "parsec-ref")));
        cfg_ = paperDesign("4B");
        // The six apps of shortest run time, so a run holds enough passes
        // for a best-of (canneal alone takes four times as long).
        apps_ = {"blackscholes", "bodytrack", "raytrace",
                 "swaptions",    "vips",      "x264"};
        permute(apps_, opt_.seed);
        for (const auto &app : apps_) {
            if (!ref_->resultCache().find(key(app)))
                throw std::runtime_error("seed cache lacks " + key(app));
        }
    }

    double setup() override
    {
        return coldEngineSetup(opt_, cfg_.name, "parsec-setup");
    }

    std::size_t unitsPerPass() const override { return apps_.size(); }

    Ops unit() override
    {
        const std::string &app = apps_[units_ % apps_.size()];
        const std::string path =
            coldCachePath(opt_, "parsec-cold-" + std::to_string(units_));
        double dt = 0.0;
        {
            Span span("study.parsec");
            const double t0 = nowSeconds();
            StudyEngine engine(pinnedStudy(path));
            const ParsecMetrics m = engine.parsec(cfg_, app, kParsecThreads);
            dt = nowSeconds() - t0;
            tickSeconds_ += dt;
            tickCycles_ += static_cast<std::uint64_t>(m.totalCycles);
            roiCycles_[app] = static_cast<std::uint64_t>(m.roiCycles);
            stores_[app] = engine.resultCache().size();
            records_.emplace_back(app, engine.resultCache().lookup(key(app)));
        }
        fs::remove_all(fs::path(path).parent_path());
        ++units_;
        return {{app, dt}};
    }

    void verify(Outcome &out) override
    {
        for (const auto &[app, record] : records_) {
            const auto expected = ref_->resultCache().lookup(key(app));
            out.expect(record && expected && sameRecord(*expected, *record),
                       "parsec record " + key(app) +
                           " differs from the seed cache");
        }
        // The first pass's records, in the order the seed gave the apps.
        std::uint64_t h = 1469598103934665603ULL;
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            const auto &[app, record] = records_.at(i);
            h = textDigest(app, h);
            if (record)
                h = textDigest(
                    std::string(reinterpret_cast<const char *>(record->data()),
                                record->size() * sizeof(double)),
                    h);
        }
        // Per pass over the apps.
        double stores = 0.0, roi = 0.0;
        for (const auto &[app, n] : stores_)
            stores += static_cast<double>(n);
        for (const auto &[app, cycles] : roiCycles_)
            roi += static_cast<double>(cycles);
        out.layers["digest.output"] = digestValue(h);
        out.layers["study.cache_stores"] = stores;
        out.layers["workload.parsec_roi_cycles"] = roi;
    }

    void layers(Outcome &out) override
    {
        // The tick path as the workload drives it: StudyEngine::parsec
        // host time per simulated cycle.
        const double tick_ns = ratio(tickSeconds_ * 1e9, tickCycles_);
        // One app re-run through ParsecRunner directly for its SimResult.
        const std::string &app = apps_.front();
        const ParsecProfile &profile = parsecProfile(app);
        const ChipConfig chip = ref_->configured(cfg_);
        SimTotals totals;
        std::vector<ChipSim::WarmSpec> warm;
        const auto fill = slotFillOrder(chip);
        for (std::uint32_t t = 0; t < kParsecThreads; ++t) {
            AddressSpace space = AddressSpace::forThread(t);
            space.sharedBase = kParsecSharedBase;
            space.sharedProb = profile.sharedFraction;
            warm.push_back({&profile.kernel, space, fill.at(t).core});
        }
        totals.warmupSeconds = retimeWarmup(chip, warm, totals.warmLines);
        ParsecRunner runner(chip, profile, kParsecThreads, 12'345);
        const double t0 = nowSeconds();
        ParsecRunResult result;
        {
            Span span("workload.ParsecRunner.run");
            result = runner.run();
        }
        totals.runSeconds = nowSeconds() - t0;
        totals.add(result.sim, 0);
        totals.emit(out);
        out.layers["sim.tick_ns_per_cycle"] = tick_ns;

        std::vector<StreamKey> streams;
        for (const auto &name : apps_) {
            for (std::uint32_t t = 0; t < kParsecThreads; ++t)
                streams.push_back({&parsecProfile(name).kernel, 12'345, t});
        }
        probeTrace(streams, out);
    }

  private:
    std::string key(const std::string &app) const
    {
        return "ps;" + cfg_.name + ";smt1;bw8;b12000;w3000;s12345;" + app +
            ";t" + std::to_string(kParsecThreads);
    }

    std::unique_ptr<StudyEngine> ref_;
    ChipConfig cfg_;
    std::vector<std::string> apps_;
    std::vector<std::pair<std::string, std::optional<std::vector<double>>>>
        records_;
    std::map<std::string, std::size_t> stores_;
    std::map<std::string, std::uint64_t> roiCycles_;
    double tickSeconds_ = 0.0;
    std::uint64_t tickCycles_ = 0;
    unsigned units_ = 0;
};

// ---- serve-warm

/** One request the closed loop sent, with what came back. */
struct Exchange
{
    std::string op;
    std::string request; ///< canonical request document (no id)
    serve::Json doc;
    double latency = 0.0;
    bool ok = false;
    std::string output;
    std::string body; ///< the response as dumped JSON
};

class ServeWarm : public Workload
{
  public:
    /** @p unit_requests requests per unit, spread over the connections. */
    ServeWarm(const Options &options, std::size_t unit_requests)
        : Workload(options), unitRequests_(unit_requests)
    {
    }

    ~ServeWarm() override { stop(); }

    void prepare() override
    {
        ::sched_getaffinity(0, sizeof(allowed_), &allowed_);
        ref_ = std::make_unique<StudyEngine>(
            pinnedStudy(seedCacheCopy(opt_, "serve-ref")));
        buildUniverse();
        streams_.clear();
        for (unsigned c = 0; c < opt_.connections; ++c)
            streams_.emplace_back(opt_.seed, c);
        sent_.assign(opt_.connections, 0);
        records0_ = ref_->resultCache().size();
    }

    /** Start the server on a fresh copy of the seed cache (the copy is
     * not timed) and connect the clients. */
    double setup() override
    {
        stop();
        const std::string server_cache = seedCacheCopy(opt_, "serve-server");
        const double t0 = nowSeconds();
        serve::ServerOptions so;
        so.host = "127.0.0.1";
        so.port = 0;
        // Smaller than the request universe, so the response cache
        // evicts and a share of the traffic renders from records.
        so.responseCacheCapacity = 64;
        so.study = pinnedStudy(server_cache);
        server_ = std::make_unique<serve::Server>(so);
        server_->bind();
        serverThread_ = std::thread([this] {
            try {
                server_->run();
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex_);
                serverError_ = e.what();
            }
        });
        for (unsigned c = 0; c < opt_.connections; ++c) {
            clients_.push_back(std::make_unique<serve::Client>());
            clients_.back()->connect("127.0.0.1", server_->port());
        }
        const double seconds = nowSeconds() - t0;
        serverRecords0_ = server_->engine().resultCache().size();
        return seconds;
    }

    Ops unit() override
    {
        // The server's threads keep the CPU runWorkload gave this unit;
        // the clients take the other CPUs, so that their work is never
        // counted as the server's.
        cpu_set_t server_cpus;
        ::sched_getaffinity(0, sizeof(server_cpus), &server_cpus);
        cpu_set_t client_cpus = allowed_;
        if (CPU_COUNT(&server_cpus) < CPU_COUNT(&allowed_)) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &server_cpus))
                    CPU_CLR(cpu, &client_cpus);
            }
        }
        std::vector<std::vector<Exchange>> per(clients_.size());
        std::vector<std::thread> threads;
        std::vector<std::string> errors(clients_.size());
        const double t0 = nowSeconds();
        for (std::size_t c = 0; c < clients_.size(); ++c) {
            threads.emplace_back([&, c] {
                ::sched_setaffinity(0, sizeof(client_cpus), &client_cpus);
                try {
                    const std::size_t n = unitRequests_ / clients_.size();
                    for (std::size_t i = 0; i < n; ++i)
                        per[c].push_back(exchange(c));
                } catch (const std::exception &e) {
                    errors[c] = e.what();
                }
            });
        }
        for (auto &t : threads)
            t.join();
        wallSeconds_ += nowSeconds() - t0;
        Ops ops;
        pending_.clear();
        for (std::size_t c = 0; c < per.size(); ++c) {
            if (!errors[c].empty())
                throw std::runtime_error("serve client: " + errors[c]);
            for (Exchange &e : per[c]) {
                ops.emplace_back(e.op, e.latency);
                pending_.push_back(std::move(e));
            }
        }
        return ops;
    }

    /** Check the unit just served, then keep only its latencies (and the
     * first unit whole, for the digest and the JSON timings). */
    void afterUnit() override
    {
        const bool first = first_.empty();
        for (const Exchange &e : pending_) {
            latencies_[e.op].push_back(e.latency * 1e6);
            if (!e.ok) {
                checks_.expect(false, "serve " + e.op + " failed: " + e.body);
                continue;
            }
            if (e.op == "run") {
                // Every novel run is a full simulation; check a
                // deterministic sample of them by direct re-render.
                if (compute_.size() >= kRunChecks)
                    continue;
                const double t0 = nowSeconds();
                const std::string expected =
                    serve::runText(*ref_, serve::parseRequest(e.doc).run);
                compute_.push_back(nowSeconds() - t0);
                wait_.push_back(e.latency - compute_.back());
                const auto diff = textMismatch(expected, e.output);
                checks_.expect(!diff, "serve run reply differs from runText "
                                      "at " + diff.value_or(""));
            } else {
                auto it = references_.find(e.request);
                if (it == references_.end()) {
                    const serve::Request req = serve::parseRequest(e.doc);
                    std::string text;
                    if (e.op == "sweep")
                        text = serve::sweepText(*ref_, req.sweep);
                    else if (e.op == "isolated")
                        text = serve::isolatedText(*ref_, req.isolated);
                    else
                        text = serve::scheduleText(*ref_, req.schedule);
                    it = references_.emplace(e.request, std::move(text)).first;
                }
                const auto diff = textMismatch(it->second, e.output);
                checks_.expect(!diff, "serve " + e.op + " reply differs from "
                                      "the direct render at " +
                                          diff.value_or(""));
            }
            // The first unit's requests are a pure function of the seed.
            if (first)
                digest_ = textDigest(e.output, textDigest(e.request, digest_));
        }
        if (first)
            first_ = std::move(pending_);
        pending_.clear();
    }

    void verify(Outcome &out) override
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            out.expect(serverError_.empty(), "server: " + serverError_);
        }
        out.attempted += checks_.attempted;
        out.failed += checks_.failed;
        out.errors.insert(out.errors.end(), checks_.errors.begin(),
                          checks_.errors.end());
        out.expect(ref_->resultCache().size() == records0_,
                   "reference renders ran simulations (universe not "
                   "covered by the seed cache)");
        out.layers["digest.output"] = digestValue(digest_);
        out.info["serve.universe"] = std::to_string(universe_);
        latencyMetrics(out);
    }

    /** The served latencies, by op (always reported; `--workload all`
     * prints them beside the end-to-end metrics). */
    void latencyMetrics(Outcome &out)
    {
        std::vector<double> all;
        for (const auto &[op, samples] : latencies_)
            all.insert(all.end(), samples.begin(), samples.end());
        const auto p99 = supportedQuantile(all, 0.99);
        out.layers["serve.requests"] = static_cast<double>(all.size());
        out.layers["serve.rps"] = ratio(all.size(), wallSeconds_);
        out.layers["serve.p50_us"] = median(all);
        out.layers["serve.p99_us"] = p99.value_or(0.0);
        out.layers["serve.p99_samples"] = static_cast<double>(all.size());
        out.layers["serve.p50_us.run"] = median(latencies_["run"]);
        out.layers["serve.p50_us.sweep"] = median(latencies_["sweep"]);
        if (!p99)
            out.info["serve.p99"] =
                "not reported: fewer than 10 of " +
                std::to_string(all.size()) + " samples beyond p99";
    }

    void layers(Outcome &out) override
    {
        serveLayers(out);
        out.layers["study.cache_stores"] =
            out.layers["serve.result_cache_stores"];
        // The simulations behind the served `run` requests.
        SimTotals totals;
        probeRuns(runRequests(8), totals);
        totals.emit(out);
        probeTrace(streamsOf(runRequests(first_.size())), out);
    }

    /** The serve-layer metrics alone (also the probe other workloads
     * run). */
    void serveLayers(Outcome &out)
    {
        latencyMetrics(out);
        // JSON framing cost on the captured response bodies.
        std::vector<double> parse, dump;
        double bytes = 0.0;
        for (const Exchange &e : first_) {
            bytes += static_cast<double>(e.body.size());
            Span span("serve.Json");
            double t0 = nowSeconds();
            const serve::Json doc = serve::Json::parse(e.body);
            parse.push_back(nowSeconds() - t0);
            t0 = nowSeconds();
            const std::string again = doc.dump();
            dump.push_back(nowSeconds() - t0);
            if (again.size() != e.body.size())
                out.info["serve.json"] = "dump did not round-trip";
        }
        out.layers["serve.json_parse_us"] = median(parse) * 1e6;
        out.layers["serve.json_dump_us"] = median(dump) * 1e6;
        out.layers["serve.response_bytes"] = ratio(bytes, first_.size());

        const serve::Json stats =
            clients_.front()->call(statsRequest()).at("stats");
        const double requests = stats.at("requests").asNumber();
        out.layers["serve.response_cache_hit_rate"] =
            ratio(stats.at("cache_hits").asNumber(), requests);
        out.layers["serve.executed"] = stats.at("executed").asNumber();
        out.layers["serve.run_compute_us"] = median(compute_) * 1e6;
        out.layers["serve.queue_wait_us"] = median(wait_) * 1e6;
        out.layers["serve.result_cache_stores"] =
            stats.at("result_cache_entries").asNumber() -
            static_cast<double>(serverRecords0_);
    }

    /** Streams of the run requests sent so far (for the trace probe). */
    std::vector<SimRun> runRequests(std::size_t limit)
    {
        std::vector<SimRun> runs;
        for (const Exchange &e : first_) {
            if (e.op != "run" || runs.size() == limit)
                continue;
            const serve::RunRequest req = serve::parseRequest(e.doc).run;
            SimRun run;
            run.config = serve::buildDesign(req.design, req.noSmt, req.hasBw,
                                            req.bw, req.prefetch);
            run.name = e.request;
            run.specs = mixWorkload(req.workload).specs(req.budget,
                                                        req.warmup);
            run.placement =
                scheduleOffline(run.config, run.specs, ref_->offline());
            run.seed = req.seed;
            runs.push_back(std::move(run));
        }
        return runs;
    }

  private:
    /** Run requests re-rendered directly per verification. */
    static constexpr std::size_t kRunChecks = 40;
    /** Variants of the load generator's request pool drawn on. */
    static constexpr unsigned kPoolVariants = 64;
    /** Run shapes cycled through; each connection's unit holds whole
     * cycles, so every unit carries the same simulation work. */
    static constexpr std::size_t kRunShapes = 2;
    /**
     * One request in kRunEvery is a novel `run`. The share is unverified:
     * no operator log exists to take it from. A run costs about a
     * thousand cached replies, so this keeps runs a minority of the
     * requests and of the server's time, which is what the workload is
     * defined by. The rest is split evenly over the three cached ops, as
     * in the load generator's documented mix
     * (`sweep=1,isolated=1,schedule=1`).
     */
    static constexpr std::uint64_t kRunEvery = 1'000;

    static serve::Json statsRequest()
    {
        serve::Json doc = serve::Json::object();
        doc.set("op", serve::Json::string("stats"));
        return doc;
    }

    /**
     * The request universe, in the load generator's vocabulary
     * (serve::loadgenRequestPool): its `isolated` requests, its `sweep`
     * requests whose records the seed cache holds, and kRunShapes of its
     * `run` requests (loadgen's default budget and warmup).
     * Its `schedule` requests name random mixes the seed cache does not
     * hold, so schedules come from the cached `ol;` decisions instead.
     */
    void buildUniverse()
    {
        // loadgen's default seed: the universe, and so the cost of a
        // reply, is the same for every workload seed, which only draws
        // the sequence.
        serve::LoadGenOptions lg;
        lg.distinct = kPoolVariants;
        const auto cached = cachedSweeps(*ref_);
        const auto isCached = [&](const serve::Json &doc) {
            const serve::SweepRequest req = serve::parseRequest(doc).sweep;
            return std::any_of(cached.begin(), cached.end(),
                               [&](const serve::SweepRequest &c) {
                                   return c.design == req.design &&
                                       c.bench == req.bench &&
                                       c.het == req.het &&
                                       c.noSmt == req.noSmt && !req.hasBw;
                               });
        };
        pool_.clear();
        for (serve::Json &doc : serve::loadgenRequestPool(lg)) {
            const std::string op = doc.at("op").asString();
            if ((op == "sweep" && isCached(doc)) || op == "isolated" ||
                (op == "run" && pool_[op].size() < kRunShapes))
                pool_[op].push_back(std::move(doc));
        }
        schedules_ = cachedSchedules(opt_.seedCache);
        if (pool_["sweep"].empty() || pool_["isolated"].empty() ||
            pool_["run"].size() != kRunShapes || schedules_.empty())
            throw std::runtime_error("seed cache has no cached sweeps or "
                                     "schedules to serve");
        std::set<std::string> distinct;
        for (const char *op : {"sweep", "isolated"}) {
            for (const serve::Json &doc : pool_.at(op))
                distinct.insert(doc.dump());
        }
        universe_ = distinct.size() + schedules_.size();
    }

    /** The next request of connection @p c's stream. */
    serve::Json nextRequest(std::size_t c, std::string &op)
    {
        const std::uint64_t index = sent_[c]++;
        if (index % kRunEvery == 0) {
            const std::uint64_t k = index / kRunEvery;
            op = "run";
            serve::Json doc = pool_.at(op)[k % kRunShapes];
            // The seed makes every run novel (never a cached response).
            doc.set("seed", serve::Json::number(
                                std::uint64_t{1'000'000} * (opt_.seed % 1'000) +
                                std::uint64_t{100'000} * c + k));
            return doc;
        }
        Rng &rng = streams_[c];
        static const char *const kCachedOps[] = {"sweep", "isolated",
                                                 "schedule"};
        op = kCachedOps[rng.nextRange(3)];
        if (op != "schedule") {
            const auto &docs = pool_.at(op);
            return docs[rng.nextRange(docs.size())];
        }
        const auto &req = schedules_[rng.nextRange(schedules_.size())];
        serve::Json doc = serve::Json::object();
        doc.set("op", serve::Json::string(op));
        doc.set("design", serve::Json::string(req.design));
        doc.set("benchmarks", stringList(req.benchmarks));
        doc.set("policy", serve::Json::string(req.policy));
        return doc;
    }

    Exchange exchange(std::size_t c)
    {
        Exchange e;
        e.doc = nextRequest(c, e.op);
        e.request = e.doc.dump();
        Span span("serve.Client.call");
        const double t0 = nowSeconds();
        const serve::Json reply = clients_[c]->call(e.doc);
        e.latency = nowSeconds() - t0;
        e.body = reply.dump();
        e.ok = reply.has("ok") && reply.at("ok").asBool();
        if (e.ok && reply.has("output"))
            e.output = reply.at("output").asString();
        return e;
    }

    void stop()
    {
        clients_.clear();
        if (server_) {
            server_->requestStop();
            if (serverThread_.joinable())
                serverThread_.join();
            server_.reset();
        }
    }

    std::size_t unitRequests_;
    cpu_set_t allowed_{}; ///< the process's CPUs before any pinning
    std::unique_ptr<StudyEngine> ref_;
    std::unique_ptr<serve::Server> server_;
    std::thread serverThread_;
    std::mutex mutex_;
    std::string serverError_;
    std::vector<std::unique_ptr<serve::Client>> clients_;
    std::vector<Rng> streams_;
    std::vector<std::uint64_t> sent_; ///< requests drawn per connection
    std::map<std::string, std::vector<serve::Json>> pool_; ///< by op
    std::vector<serve::ScheduleRequest> schedules_;
    std::size_t universe_ = 0; ///< distinct cached requests
    std::vector<Exchange> pending_; ///< the unit just served
    std::vector<Exchange> first_;   ///< the first unit, kept whole
    std::map<std::string, std::vector<double>> latencies_; ///< us, by op
    std::map<std::string, std::string> references_; ///< request -> text
    Outcome checks_;
    std::uint64_t digest_ = 1469598103934665603ULL;
    std::size_t records0_ = 0; ///< reference cache size after set-up
    std::size_t serverRecords0_ = 0;
    double wallSeconds_ = 0.0; ///< summed closed-loop unit time
    /** Direct runText time, and served latency minus it, per checked
     * run. */
    std::vector<double> compute_, wait_;
};

/** Requests per serve-warm unit: two runs per connection at nproc 4. */
constexpr std::size_t kServeUnitRequests = 4'000;
/** Requests of the serve probe other workloads run when traced. */
constexpr std::size_t kServeProbeRequests = 1'000;

/** Set-ups per run: at least kMinSetups, then more until kSetupSeconds
 * of set-up time are spent or kMaxSetups are done. */
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 400;
constexpr double kSetupSeconds = 1.0;

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "sweep-cold")
        return std::make_unique<SweepCold>(opt);
    if (opt.workload == "sim-long")
        return std::make_unique<SimLong>(opt);
    if (opt.workload == "parsec-tick")
        return std::make_unique<ParsecTick>(opt);
    if (opt.workload == "serve-warm")
        return std::make_unique<ServeWarm>(opt, kServeUnitRequests);
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

/** Study-layer probes every workload reports: seed-cache load, warm
 * renders of the three cached ops, and the offline table from records. */
void
probeStudy(const Options &opt, Outcome &out, bool offline_measured)
{
    const std::string copy = seedCacheCopy(opt, "study-probe");
    double t0 = nowSeconds();
    std::unique_ptr<StudyEngine> engine;
    {
        Span span("study.ResultCache.load");
        engine = std::make_unique<StudyEngine>(pinnedStudy(copy));
    }
    out.layers["study.cache_load_s"] = nowSeconds() - t0;
    out.layers["study.cache_records"] =
        static_cast<double>(engine->resultCache().size());
    if (!offline_measured) {
        Span span("study.offline");
        t0 = nowSeconds();
        engine->offline();
        out.layers["study.offline_s"] = nowSeconds() - t0;
    }
    const auto timeRenders = [&](const char *name, auto &&render,
                                 std::size_t count) {
        std::vector<double> samples;
        for (int pass = 0; pass < 3; ++pass) {
            for (std::size_t i = 0; i < count; ++i) {
                Span span(name);
                const double s0 = nowSeconds();
                render(i);
                samples.push_back(nowSeconds() - s0);
            }
        }
        return median(samples) * 1e6;
    };
    const auto sweeps = cachedSweeps(*engine);
    const auto schedules = cachedSchedules(opt.seedCache);
    if (sweeps.empty() || schedules.empty())
        throw std::runtime_error("seed cache has no cached sweeps or "
                                 "schedules to render");
    out.layers["study.render_us.sweep"] = timeRenders(
        "serve.sweepText",
        [&](std::size_t i) {
            serve::sweepText(*engine, sweeps[i * 7 % sweeps.size()]);
        },
        24);
    serve::IsolatedRequest all;
    out.layers["study.render_us.isolated"] = timeRenders(
        "serve.isolatedText",
        [&](std::size_t) { serve::isolatedText(*engine, all); }, 8);
    out.layers["study.render_us.schedule"] = timeRenders(
        "serve.scheduleText",
        [&](std::size_t i) {
            serve::scheduleText(*engine,
                                schedules[i * 5 % schedules.size()]);
        },
        24);
}

std::string
joined(const std::vector<double> &values)
{
    std::string list;
    for (const double v : values)
        list += (list.empty() ? "" : " ") + std::to_string(v);
    return list;
}

} // namespace

void
runWorkload(const Options &opt, Outcome &out)
{
    fs::create_directories(opt.tmpDir);
    out.info["exec.jobs_env"] =
        std::to_string(exec::ThreadPool::configuredJobs());

    // Units start with every thread of the process on one CPU, the next
    // allowed CPU each time: on a shared host one CPU can run far slower
    // than another for seconds to minutes, and a best-of over CPUs sees
    // through that. serve-warm then moves its clients to the other CPUs;
    // sweep-cold needs every CPU.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ::sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    std::size_t hops = 0;
    const auto pinProcess = [](const cpu_set_t &mask) {
        // Threads started later inherit their creator's mask.
        for (const auto &task : fs::directory_iterator("/proc/self/task")) {
            const pid_t tid = std::stoi(task.path().filename().string());
            ::sched_setaffinity(tid, sizeof(mask), &mask);
        }
    };
    const auto hop = [&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[hops++ % cpus.size()], &one);
        pinProcess(one);
    };

    std::unique_ptr<Workload> w = makeWorkload(opt);
    const bool one_cpu = w->oneCpuPerUnit();
    w->prepare();
    // setup_s is the median of several set-ups, each on the next CPU
    // (every set-up is single-threaded); the last one is kept.
    std::vector<double> setups;
    double setup_sum = 0.0;
    while (setups.size() < kMinSetups ||
           (setup_sum < kSetupSeconds && setups.size() < kMaxSetups)) {
        hop();
        setups.push_back(w->setup());
        setup_sum += setups.back();
    }
    pinProcess(allowed);
    const std::size_t per_pass = w->unitsPerPass();

    // The timed phase: whole passes until the time is spent. Each unit's
    // wall time and process CPU time are kept; with several units a
    // pass, units are grouped by the run they did.
    std::vector<double> walls, unit_cpus, unit_p50s;
    std::map<std::string, std::vector<std::size_t>> units_of;
    std::size_t op_count = 0;
    double wall_sum = 0.0;
    const double start = nowSeconds();
    do {
        if (one_cpu)
            hop();
        const double c0 = cpuSeconds();
        const double t0 = nowSeconds();
        const Ops unit_ops = w->unit();
        walls.push_back(nowSeconds() - t0);
        unit_cpus.push_back(cpuSeconds() - c0);
        wall_sum += walls.back();
        std::vector<double> unit_ops_s;
        for (const auto &[kind, seconds] : unit_ops)
            unit_ops_s.push_back(seconds);
        op_count += unit_ops.size();
        unit_p50s.push_back(median(unit_ops_s));
        units_of[per_pass > 1 ? unit_ops.front().first : ""].push_back(
            walls.size() - 1);
        w->afterUnit();
    } while (nowSeconds() - start < opt.seconds ||
             walls.size() % per_pass != 0);

    // Best-of estimates: the fastest unit (a one-run-per-unit workload
    // sums each run's fastest unit) and the CPU time of those same
    // units; the median operation of that pass.
    double wall = 0.0, cpu = 0.0, wall_median = 0.0;
    std::vector<double> bests;
    for (const auto &[kind, units] : units_of) {
        std::size_t best = units.front();
        std::vector<double> samples;
        for (const std::size_t u : units) {
            samples.push_back(walls[u]);
            if (walls[u] < walls[best])
                best = u;
        }
        wall += walls[best];
        cpu += unit_cpus[best];
        wall_median += median(samples);
        bests.push_back(walls[best]);
        if (per_pass > 1)
            out.info["best." + kind] = std::to_string(walls[best]);
    }
    const double op_p50 = per_pass > 1
        ? median(bests)
        : *std::min_element(unit_p50s.begin(), unit_p50s.end());
    const unsigned threads = execThreads();
    out.e2e["setup_s"] = median(setups);
    out.e2e["wall_s"] = wall;
    out.e2e["cpu_s"] = cpu;
    out.e2e["op_p50_ms"] = op_p50 * 1e3;
    out.info["setups"] = std::to_string(setups.size());
    out.info["units"] = std::to_string(walls.size());
    out.info["ops"] = std::to_string(op_count);
    out.info["timed_s"] = std::to_string(wall_sum);
    out.info["wall_s.median"] = std::to_string(wall_median);
    out.info["unit_walls"] = joined(walls);
    out.info["unit_cpus"] = joined(unit_cpus);

    if (opt.trace) {
        Tracer::global().enable(true);
        double traced = 0.0;
        {
            Span span("bench.unit");
            for (std::size_t u = 0; u < per_pass; ++u) {
                if (one_cpu)
                    hop();
                const double t0 = nowSeconds();
                w->unit();
                traced += nowSeconds() - t0;
                w->afterUnit();
            }
        }
        out.layers["bench.trace_overhead"] = ratio(traced, wall_median);
    }
    pinProcess(allowed);

    w->verify(out);
    out.e2e["peak_rss_mb"] = peakRssMb();

    if (opt.trace) {
        out.layers["exec.threads"] = threads;
        out.layers["exec.utilization"] = ratio(cpu, wall * threads);
        {
            Span span("bench.layers");
            w->layers(out);
            probeStudy(opt, out, opt.workload == "sweep-cold");
            if (opt.workload != "serve-warm") {
                // The serve layer, probed with a short closed loop.
                Options probe = opt;
                probe.connections = 1;
                ServeWarm serve(probe, kServeProbeRequests);
                serve.prepare();
                serve.setup();
                serve.unit();
                serve.afterUnit();
                Outcome scratch;
                serve.verify(scratch);
                out.attempted += scratch.attempted;
                out.failed += scratch.failed;
                for (const auto &e : scratch.errors)
                    out.errors.push_back(e);
                serve.serveLayers(out);
            }
        }
        if (!out.layers.count("workload.parsec_roi_cycles"))
            out.layers["workload.parsec_roi_cycles"] = 0.0;
        out.layers["bench.error_share"] =
            ratio(static_cast<double>(out.failed), out.attempted);
        if (!opt.traceOut.empty())
            Tracer::global().write(opt.traceOut);
    }
    w.reset();
    fs::remove_all(opt.tmpDir);
}

void
recordGolden(const Options &opt)
{
    std::ofstream out(opt.golden);
    out << "# sim-long golden SimResult digests: run seed digest, recorded "
           "with fast-forward off\n";
    for (const SimRun &run : longRuns(kLongSeed)) {
        ChipSim chip(run.config);
        chip.setFastForward(false);
        const SimResult r =
            chip.runMultiProgram(run.specs, run.placement, run.seed);
        out << run.name << ' ' << kLongSeed << ' ' << hex64(simDigest(r))
            << '\n';
        std::printf("%s seed %llu cycles %llu\n", run.name.c_str(),
                    static_cast<unsigned long long>(kLongSeed),
                    static_cast<unsigned long long>(r.cycles));
    }
}

} // namespace ledger
