/**
 * @file
 * In-order core model with fine-grained multithreading (the paper's small
 * core: 2-wide in-order, up to 2 hardware threads).
 *
 * Cycle behaviour (the in-order issue stage, Core::issueInOrder):
 *  - one context issues per core cycle (barrel-style fine-grained MT);
 *    stalled contexts yield their slot to the other context;
 *  - dual issue of independent ops subject to functional units;
 *  - stall-on-RAW: an op whose producer has not completed blocks issue;
 *  - full stall on misses past the private L2 (no MLP in a simple
 *    in-order pipeline), short stalls covered by the dependency check;
 *  - mispredicted branches flush the short pipeline.
 */

#ifndef SMTFLEX_UARCH_INORDER_CORE_H
#define SMTFLEX_UARCH_INORDER_CORE_H

#include "uarch/core.h"

namespace smtflex {

/** 2-wide in-order core with 2-way fine-grained MT (Table 1 small). */
class InOrderCore : public Core
{
  public:
    InOrderCore(const CoreParams &params, std::uint32_t core_id,
                std::uint32_t num_contexts, MemorySystem *shared,
                double chip_freq_ghz);

    Cycle nextEventCycle(Cycle global_now) override;

  protected:
    void coreCycle() override;
    void onSkippedCoreCycles(Cycle core_cycles) override;
};

} // namespace smtflex

#endif // SMTFLEX_UARCH_INORDER_CORE_H
