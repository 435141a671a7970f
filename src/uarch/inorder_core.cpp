#include "inorder_core.h"

#include <algorithm>
#include <bit>

namespace smtflex {

InOrderCore::InOrderCore(const CoreParams &params, std::uint32_t core_id,
                         std::uint32_t num_contexts, MemorySystem *shared,
                         double chip_freq_ghz)
    : Core(params, core_id, num_contexts, shared, chip_freq_ghz)
{
}

Cycle
InOrderCore::nextEventCycle(Cycle global_now)
{
    Cycle event = earliestHeadCompletion(); // core cycles
    // Contexts without a thread only retire, which the head completion
    // covers.
    for (std::uint32_t bits = attachedMask_; bits != 0; bits &= bits - 1) {
        const Context &ctx = contexts_[std::countr_zero(bits)];
        if (ctx.stallUntil > coreNow_) {
            // Sleeping on a RAW hazard, an off-core miss, an I-miss or a
            // flush: the barrel scheduler passes this context over without
            // touching anything until the stall expires.
            event = std::min(event, ctx.stallUntil);
            continue;
        }
        if (ctx.robCount >= ctx.rob.size())
            continue; // pipeline buffer full: drains at head completion
        if (ctx.hasStaged || ctx.thread->hasWork())
            return global_now + 1; // may win the issue slot next cycle
        // Attached but out of work: only retirement remains.
    }
    return globalCycleForCoreEvent(global_now, event);
}

void
InOrderCore::onSkippedCoreCycles(Cycle core_cycles)
{
    // Barrel rotation advances every core cycle, issued or not.
    fetchRotor_ += static_cast<std::uint32_t>(core_cycles);
}

void
InOrderCore::coreCycle()
{
    retireCycle(params_.width);
    issueInOrder();
}

} // namespace smtflex
