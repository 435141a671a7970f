/**
 * @file
 * google-benchmark micro-benchmarks of the simulator components themselves:
 * trace generation, cache access, DRAM scheduling, and whole-chip
 * simulation throughput. These guard the simulator's own performance (a
 * design-space sweep runs thousands of chip-seconds).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.h"
#include "dram/dram.h"
#include "sim/chip_sim.h"
#include "study/design_space.h"
#include "trace/spec_profiles.h"
#include "trace/tracegen.h"

using namespace smtflex;

namespace {

void
BM_TraceGeneration(benchmark::State &state)
{
    TraceGenerator gen(specProfile("soplex"), 1, 0,
                       AddressSpace::forThread(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.next());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache("bench", {static_cast<std::uint64_t>(state.range(0)),
                                  8});
    Rng rng(7);
    const std::uint64_t lines = 4 * cache.geometry().numLines();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextRange(lines) * kLineSize, false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(32 * 1024)->Arg(8 * 1024 * 1024);

void
BM_DramSchedule(benchmark::State &state)
{
    DramModel dram(DramConfig{});
    Cycle now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        now += 30;
        addr += kLineSize;
        benchmark::DoNotOptimize(dram.read(now, addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramSchedule);

void
BM_ChipSimCycles(benchmark::State &state)
{
    // Simulated cycles per wall second on a fully loaded design.
    const ChipConfig cfg = paperDesign("4B");
    ChipSim chip(cfg);
    std::vector<SimThread> threads;
    threads.reserve(24);
    for (std::uint32_t i = 0; i < 24; ++i)
        threads.emplace_back(specProfile("hmmer"), 1, i,
                             InstrCount{1} << 40, true);
    for (std::uint32_t i = 0; i < 24; ++i)
        chip.attach(i % 4, i / 4, &threads[i]);
    for (auto _ : state)
        chip.tick();
    state.SetItemsProcessed(state.iterations());
    state.counters["instr_per_cycle"] = benchmark::Counter(
        static_cast<double>(chip.collectResult().cores[0].stats.retired));
}
BENCHMARK(BM_ChipSimCycles);

void
BM_ChipSim20sCycles(benchmark::State &state)
{
    const ChipConfig cfg = paperDesign("20s");
    ChipSim chip(cfg);
    std::vector<SimThread> threads;
    threads.reserve(20);
    for (std::uint32_t i = 0; i < 20; ++i)
        threads.emplace_back(specProfile("milc"), 1, i,
                             InstrCount{1} << 40, true);
    for (std::uint32_t i = 0; i < 20; ++i)
        chip.attach(i, 0, &threads[i]);
    for (auto _ : state)
        chip.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChipSim20sCycles);

/**
 * Simulated cycles per wall second on the memory-bound design the
 * event-driven fast-forward targets: mcf on the 20-small-core in-order
 * chip spends most of its time with every context stalled on a DRAM
 * fill, so nearly every cycle is skippable. The strict variant pins the
 * fast-forward off to measure the baseline on the same run() path; their
 * items/sec ratio is the wall-clock fast-forward speedup, and ff_cycles
 * counts the core-cycles the fast variant elided.
 */
void
runChipSimMcf20s(benchmark::State &state, bool fast_forward,
                 Cycle sampling_interval = 0)
{
    const ChipConfig cfg = paperDesign("20s");
    ChipSim chip(cfg);
    std::vector<SimThread> threads;
    threads.reserve(20);
    for (std::uint32_t i = 0; i < 20; ++i)
        threads.emplace_back(specProfile("mcf"), 1, i,
                             InstrCount{1} << 40, true);
    for (std::uint32_t i = 0; i < 20; ++i)
        chip.attach(i, 0, &threads[i]);
    chip.setFastForward(fast_forward);
    if (sampling_interval != 0)
        chip.enableSampling(sampling_interval, 4096);
    constexpr Cycle kChunk = 4096;
    for (auto _ : state)
        chip.run(kChunk);
    state.SetItemsProcessed(state.iterations() * kChunk);
    state.counters["ff_cycles"] = benchmark::Counter(
        static_cast<double>(chip.fastForwardedCycles()));
    state.counters["ff_spans"] = benchmark::Counter(
        static_cast<double>(chip.fastForwardSpans()));
}

void
BM_ChipSimFastForwardMcf20s(benchmark::State &state)
{
    runChipSimMcf20s(state, true);
}
// Pinned iteration counts make both variants simulate the exact same
// global-cycle window — from cycle 0, like every study-engine run — free
// of program-phase sampling bias. ff_cycles is then a deterministic count:
// CI gates on the elided share ff_cycles / (20 cores x 256 x 4096 cycles)
// >= 0.95 and only reports the items/sec ratio, which host load moves.
BENCHMARK(BM_ChipSimFastForwardMcf20s)->Iterations(256);

void
BM_ChipSimStrictMcf20s(benchmark::State &state)
{
    runChipSimMcf20s(state, false);
}
BENCHMARK(BM_ChipSimStrictMcf20s)->Iterations(256);

/**
 * The telemetry-overhead guard: the same fast-forward run with the metric
 * registry fully attached AND interval sampling on (one chip.ipc +
 * chip.active_threads point per 10k cycles, fast-forward jumps clamped to
 * sample boundaries). The registry itself holds pointer views, so the
 * only admissible cost is the sampling branch — this variant's items/sec
 * must stay within noise of BM_ChipSimFastForwardMcf20s (same pinned
 * iterations, compared per run in BENCH_sim.json).
 */
void
BM_ChipSimSampledMcf20s(benchmark::State &state)
{
    runChipSimMcf20s(state, true, 10'000);
}
BENCHMARK(BM_ChipSimSampledMcf20s)->Iterations(256);

} // namespace

BENCHMARK_MAIN();
