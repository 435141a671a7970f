#include "morph_core.h"

#include "common/log.h"

namespace smtflex {

MorphCore::MorphCore(const CoreParams &params, const MorphParams &morph,
                     std::uint32_t core_id, std::uint32_t num_contexts,
                     MemorySystem *shared, double chip_freq_ghz)
    : OooCore(params, core_id, num_contexts, shared, chip_freq_ghz),
      morph_(morph)
{
    if (!params.outOfOrder)
        fatal("MorphCore: the base personality must be out-of-order");
    if (morph_.oooThreadLimit == 0)
        fatal("MorphCore: oooThreadLimit must be >= 1");
}

void
MorphCore::coreCycle()
{
    // Threads attach and detach between ticks, so the mode this cycle
    // wants is known before retirement runs.
    const bool want_ooo = activeContexts() <= morph_.oooThreadLimit;
    if (want_ooo == oooMode_ && stallUntilSwitch_ <= coreNow_) {
        if (oooMode_) {
            OooCore::coreCycle();
        } else {
            retireCycle(params_.width);
            issueInOrder();
        }
        return;
    }

    // Mode controller: when the active thread count crosses the limit,
    // stop dispatching, drain the in-flight ops, then morph and pay the
    // reconfiguration penalty. Only retirement runs while draining and
    // refilling.
    retireCycle(params_.width);
    if (want_ooo != oooMode_ && inFlightMask_ == 0) {
        oooMode_ = want_ooo;
        ++modeSwitches_;
        stallUntilSwitch_ = coreNow_ + morph_.switchPenalty;
    }
}

} // namespace smtflex
