/**
 * @file
 * MorphCore (Khubaib et al., MICRO 2012), the dynamic core the paper
 * discusses in Sections 2.2 and 9: a high-performance out-of-order core
 * that morphs into a many-threaded in-order core when the demand for
 * thread-level parallelism is high.
 *
 * Model: a mode controller over the two pipelines. With few active
 * threads (<= oooThreadLimit) the core runs OooCore's cycle on the
 * configured out-of-order personality; with more, it runs the in-order
 * issue stage (Core::issueInOrder, barrel execution across all contexts:
 * wide SMT in-order). Switching drains the pipeline (a fixed penalty).
 * The paper argues SMT on a big core achieves much of this flexibility
 * without the mode machinery — bench_ext_morphcore measures the
 * comparison.
 */

#ifndef SMTFLEX_UARCH_MORPH_CORE_H
#define SMTFLEX_UARCH_MORPH_CORE_H

#include "uarch/ooo_core.h"

namespace smtflex {

/** MorphCore-specific knobs. */
struct MorphParams
{
    /** Run out-of-order while active contexts <= this. */
    std::uint32_t oooThreadLimit = 2;
    /** Core cycles the pipeline drain costs on a mode switch. */
    std::uint32_t switchPenalty = 100;
};

/**
 * A core that switches between out-of-order and in-order-SMT operation
 * based on the number of active threads.
 */
class MorphCore : public OooCore
{
  public:
    /** @param params the out-of-order personality (big/medium core);
     *  the in-order mode reuses its widths and latencies. */
    MorphCore(const CoreParams &params, const MorphParams &morph,
              std::uint32_t core_id, std::uint32_t num_contexts,
              MemorySystem *shared, double chip_freq_ghz);

    /** True while running in out-of-order mode. */
    bool inOooMode() const { return oooMode_; }
    /** Number of mode switches so far. */
    std::uint64_t modeSwitches() const { return modeSwitches_; }

    /** No fast-forward analysis of the modes and switches: every cycle
     * is ticked. */
    Cycle nextEventCycle(Cycle global_now) override
    {
        return Core::nextEventCycle(global_now);
    }

  protected:
    void coreCycle() override;

  private:
    MorphParams morph_;
    bool oooMode_ = true;
    Cycle stallUntilSwitch_ = 0;
    std::uint64_t modeSwitches_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_UARCH_MORPH_CORE_H
