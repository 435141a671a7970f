/**
 * @file
 * Differential tests of ParsecRunner's event-driven loop: a run with
 * fast-forward on must give a ParsecRunResult field-for-field identical
 * to the same run under strict stepping (SMTFLEX_NO_FASTFWD=1) — sparse
 * SMT contexts, in-order cores, serial phases, non-unit clock ratios,
 * lock throttling and a cycle limit that cuts an idle span short.
 */

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "study/design_space.h"
#include "tests/common/expect_identical.h"
#include "workload/parsec.h"
#include "workload/parsec_runner.h"

namespace smtflex {
namespace {

/** A small app model with the structure of a real one. */
ParsecProfile
smallApp(const std::string &base, double critical = 0.0)
{
    ParsecProfile p = parsecProfile(base);
    p.name = "small-" + base;
    p.seqInitInstr = 20'000;
    p.seqFinalInstr = 4'000;
    p.roiInstr = 120'000;
    p.numPhases = 3;
    p.criticalFraction = critical;
    p.validate();
    return p;
}

/** Run @p app with SMTFLEX_NO_FASTFWD set to @p no_fastfwd while the
 * runner (and its chip) is built; the ambient value is restored. */
ParsecRunResult
runWith(const char *no_fastfwd, const ChipConfig &cfg,
        const ParsecProfile &app, std::uint32_t threads,
        bool throttle = false, Cycle max_cycles = 2'000'000'000)
{
    const char *ambient = std::getenv("SMTFLEX_NO_FASTFWD");
    const std::optional<std::string> saved =
        ambient ? std::optional<std::string>(ambient) : std::nullopt;
    ::setenv("SMTFLEX_NO_FASTFWD", no_fastfwd, 1);
    ParsecRunner runner(cfg, app, threads, 42, throttle);
    if (saved)
        ::setenv("SMTFLEX_NO_FASTFWD", saved->c_str(), 1);
    else
        ::unsetenv("SMTFLEX_NO_FASTFWD");
    return runner.run(max_cycles);
}

/** Every field of the two runs equal, doubles by bit pattern; the fast
 * run must really have skipped cycles and the strict one none. */
void
expectSameRun(const ParsecRunResult &strict, const ParsecRunResult &fast)
{
    expectIdentical(strict.sim, fast.sim);
    EXPECT_EQ(strict.roiStartCycle, fast.roiStartCycle);
    EXPECT_EQ(strict.roiEndCycle, fast.roiEndCycle);
    EXPECT_EQ(strict.totalCycles, fast.totalCycles);
    EXPECT_EQ(strict.completed, fast.completed);
    ASSERT_EQ(strict.roiActiveThreadFractions.size(),
              fast.roiActiveThreadFractions.size());
    for (std::size_t k = 0; k < strict.roiActiveThreadFractions.size(); ++k) {
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(strict.roiActiveThreadFractions[k]),
            std::bit_cast<std::uint64_t>(fast.roiActiveThreadFractions[k]))
            << "ROI histogram bucket " << k;
    }
    EXPECT_EQ(strict.fastForwardedCycles, Cycle{0});
    EXPECT_GT(fast.fastForwardedCycles, Cycle{0});
}

void
expectFastMatchesStrict(const ChipConfig &cfg, const ParsecProfile &app,
                        std::uint32_t threads, bool throttle = false)
{
    const ParsecRunResult strict = runWith("1", cfg, app, threads, throttle);
    const ParsecRunResult fast = runWith("0", cfg, app, threads, throttle);
    ASSERT_TRUE(strict.completed);
    expectSameRun(strict, fast);
}

TEST(ParsecRunnerFastFwdTest, SparseSmtContextsMatchStrict)
{
    // Four threads spread over 4B leave five of each core's six contexts
    // empty.
    expectFastMatchesStrict(paperDesign("4B"), smallApp("canneal"), 4);
}

TEST(ParsecRunnerFastFwdTest, InOrderCoresMatchStrict)
{
    // A few critical sections: a thread's next segment often starts on
    // its still-attached context, with no attach to wake its core.
    expectFastMatchesStrict(paperDesign("20s"),
                            smallApp("streamcluster", 0.05), 16);
}

TEST(ParsecRunnerFastFwdTest, SerialPhasesOnTheBigCoreMatchStrict)
{
    ParsecProfile app = smallApp("bodytrack");
    app.serialPerPhase = 5'000;
    expectFastMatchesStrict(paperDesign("1B15s"), app, 8);
}

TEST(ParsecRunnerFastFwdTest, NonUnitClockRatioMatchesStrict)
{
    expectFastMatchesStrict(alternativeDesign("16s_hf"), smallApp("canneal"),
                            8);
}

TEST(ParsecRunnerFastFwdTest, ThrottledLocksMatchStrict)
{
    // Lock holders pause their SMT co-runners: detach/attach mid-run on
    // shared cores, and lock hand-offs between cores.
    expectFastMatchesStrict(paperDesign("4B"), smallApp("dedup", 0.25), 12,
                            /*throttle=*/true);
}

TEST(ParsecRunnerFastFwdTest, CycleLimitInsideAnIdleSpanMatchesStrict)
{
    // During initialisation one in-order core runs and the others are
    // parked, so the per-core elided count grows by exactly one per
    // skipped cycle. A limit L with cycles L and L + 1 both skipped cuts
    // a jump short: the loop must stop at L, and the final flush must
    // settle the partial span.
    const ChipConfig cfg = paperDesign("20s");
    const ParsecProfile app = smallApp("canneal");
    const auto elided = [&](Cycle limit) {
        return runWith("0", cfg, app, 4, false, limit).fastForwardedCycles;
    };
    std::optional<Cycle> limit;
    Cycle before = elided(2'999), at = elided(3'000);
    for (Cycle l = 3'000; l < 3'200 && !limit; ++l) {
        const Cycle after = elided(l + 1);
        if (at == before + 1 && after == at + 1)
            limit = l;
        before = at;
        at = after;
    }
    ASSERT_TRUE(limit.has_value()) << "no idle span found to cut";

    const ParsecRunResult strict = runWith("1", cfg, app, 4, false, *limit);
    const ParsecRunResult fast = runWith("0", cfg, app, 4, false, *limit);
    EXPECT_FALSE(fast.completed);
    EXPECT_EQ(fast.totalCycles, *limit);
    expectSameRun(strict, fast);
}

} // namespace
} // namespace smtflex
