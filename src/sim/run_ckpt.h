/**
 * @file
 * Run-level checkpointing of ChipSim::runMultiProgram (DESIGN.md §15):
 * the resume key, snapshot eligibility, the store lookup with
 * restore-or-fatal, the save with its meta header, and the `ckpt.*`
 * hit/miss/resume counters. Inert unless the process checkpoint binding
 * (ckpt::processBinding()) is on.
 */

#ifndef SMTFLEX_SIM_RUN_CKPT_H
#define SMTFLEX_SIM_RUN_CKPT_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/chip_sim.h"

namespace smtflex {

namespace ckpt {
struct ProcessBinding;
}

/** Checkpointing of one runMultiProgram() call; @p threads must outlive
 * it. The chip's sampling settings shape the state stream, so they join
 * the resume key. */
class RunCheckpoint
{
  public:
    RunCheckpoint(const ChipConfig &config,
                  const std::vector<ThreadSpec> &specs,
                  const Placement &placement, std::uint64_t seed,
                  const RunLimits &limits, Cycle sampling_interval,
                  std::size_t sampling_max_points,
                  const std::vector<std::unique_ptr<SimThread>> &threads);

    /** Cycles between snapshots; 0 when checkpointing is off. */
    Cycle interval() const { return interval_; }

    /** Resume the newest eligible snapshot — every thread's state, then
     * the rest through @p restore, whose ckpt::CorruptSnapshot is fatal
     * (the chip is half restored by then) — or return false to have the
     * caller cold-start. */
    bool resume(const std::function<void(ckpt::Reader &)> &restore) const;

    /** Snapshot the run at @p cycle: the meta header, every thread's
     * state, then @p save's stream (ChipSim::saveState's conditions).
     * Only while interval() != 0. */
    void save(Cycle cycle,
              const std::function<void(ckpt::Writer &)> &save) const;

  private:
    const ckpt::ProcessBinding *binding_;
    Cycle interval_ = 0;
    Cycle maxCycles_;
    std::string key_;
    std::string configName_;
    const std::vector<std::unique_ptr<SimThread>> &threads_;
};

} // namespace smtflex

#endif // SMTFLEX_SIM_RUN_CKPT_H
