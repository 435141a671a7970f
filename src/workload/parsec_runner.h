/**
 * @file
 * Executes a ParsecProfile application model on a ChipSim: sequential
 * phases on a big core, barrier-separated parallel phases with load
 * imbalance and lock-protected critical sections, and pinned scheduling.
 * Threads that block (lock or barrier) yield the processor — they are
 * detached from their hardware context — so the active thread count varies
 * over time (paper Figs. 1, 11, 12).
 */

#ifndef SMTFLEX_WORKLOAD_PARSEC_RUNNER_H
#define SMTFLEX_WORKLOAD_PARSEC_RUNNER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "sim/chip_sim.h"
#include "trace/tracegen.h"
#include "uarch/thread_source.h"
#include "workload/parsec.h"

namespace smtflex {

/** Outcome of one multi-threaded application run. */
struct ParsecRunResult
{
    SimResult sim;
    Cycle roiStartCycle = 0;
    Cycle roiEndCycle = 0;
    Cycle totalCycles = 0;
    bool completed = false;
    /** Fraction of ROI time with k threads attached (paper Fig. 1). */
    std::vector<double> roiActiveThreadFractions;
    /** Per-core global cycles the fast-forward elided, summed over cores
     * (diagnostics; 0 under strict stepping). */
    Cycle fastForwardedCycles = 0;

    Cycle roiCycles() const { return roiEndCycle - roiStartCycle; }
};

/**
 * One software thread of the application (master or worker).
 */
class ParsecThread : public ThreadSource
{
  public:
    ParsecThread(const ParsecProfile &app, std::uint32_t tid,
                 std::uint64_t seed);

    MicroOp nextOp() override;
    bool hasWork() override;
    void onRetire(Cycle now) override;
    void onStagedOpDropped() override;

    /** Begin executing @p instr instructions (worker kernel or, for the
     * master, optionally the serial kernel). */
    void startSegment(InstrCount instr, bool serial_kernel);
    /** Allow/disallow fetching without resetting segment progress. */
    void setRunnable(bool runnable) { runnable_ = runnable; }
    /** All instructions of the current segment retired. */
    bool segmentDone() const { return retired_ >= target_; }

    InstrCount totalRetired() const { return totalRetired_; }

  private:
    TraceGenerator workerGen_;
    TraceGenerator serialGen_;
    bool useSerial_ = false;
    bool runnable_ = false;
    InstrCount target_ = 0;
    InstrCount generated_ = 0;
    InstrCount retired_ = 0;
    InstrCount totalRetired_ = 0;
};

/**
 * Drives one application run on one chip configuration.
 */
class ParsecRunner
{
  public:
    /**
     * @param num_threads software threads (<= chip's total contexts);
     *        thread i is pinned to the i-th slot in fill order (spread
     *        across cores before SMT, big cores first).
     * @param throttle_critical when true, the SMT co-runners on a lock
     *        holder's core are paused for the duration of the critical
     *        section, giving the serialising thread the whole core — the
     *        SMT analogue of Accelerated Critical Sections that the paper
     *        suggests in its related-work discussion (Section 9).
     */
    ParsecRunner(const ChipConfig &config, const ParsecProfile &app,
                 std::uint32_t num_threads, std::uint64_t seed,
                 bool throttle_critical = false);

    /** Run the application to completion (or the cycle limit). */
    ParsecRunResult run(Cycle max_cycles = 2'000'000'000);

  private:
    /** One contiguous piece of a thread's work within a phase. */
    struct Segment
    {
        InstrCount instr = 0;
        bool critical = false;
    };

    enum class AppState { kInit, kRoi, kInterPhaseSerial, kFinal, kDone };
    enum class ThreadState { kIdle, kRunning, kWantLock, kInCritical,
                             kAtBarrier, kDone };

    void attachThread(std::uint32_t tid);
    void detachThread(std::uint32_t tid);
    void startPhase(std::uint32_t phase);
    void beginNextSegment(std::uint32_t tid);
    void handleSegmentDone(std::uint32_t tid);
    void onBarrierComplete();
    void grantLockToNextWaiter();
    /** Pause/resume the SMT co-runners on @p holder's core. */
    void throttleCoRunners(std::uint32_t holder);
    void unthrottleCoRunners(std::uint32_t holder);

    ChipConfig config_;
    const ParsecProfile *app_;
    std::uint32_t numThreads_;
    std::uint64_t seed_;

    std::unique_ptr<ChipSim> chip_;
    std::vector<std::unique_ptr<ParsecThread>> threads_;
    std::vector<Placement::Entry> pinning_;
    std::vector<ThreadState> state_;
    std::vector<bool> attached_;
    std::vector<bool> throttled_;
    std::vector<std::deque<Segment>> plan_;
    bool throttleCritical_ = false;

    AppState appState_ = AppState::kInit;
    std::uint32_t currentPhase_ = 0;
    std::uint32_t barrierArrived_ = 0;
    bool lockHeld_ = false;
    std::deque<std::uint32_t> lockQueue_;
    Rng rng_;

    Cycle roiStart_ = 0;
    Cycle roiEnd_ = 0;
    Histogram roiHistogram_;
};

} // namespace smtflex

#endif // SMTFLEX_WORKLOAD_PARSEC_RUNNER_H
