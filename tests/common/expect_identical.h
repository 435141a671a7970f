/**
 * @file
 * Field-for-field SimResult equality, shared by the differential suites
 * of fast-forward against strict stepping.
 */

#ifndef SMTFLEX_TESTS_COMMON_EXPECT_IDENTICAL_H
#define SMTFLEX_TESTS_COMMON_EXPECT_IDENTICAL_H

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "sim/chip_sim.h"

namespace smtflex {

inline void
expectIdenticalCache(const CacheStats &a, const CacheStats &b,
                     const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

/** Every field of @p actual exactly equal to @p reference's — including
 * the double-typed ones, where any accumulation-order difference would
 * show up as a ULP difference. */
inline void
expectIdentical(const SimResult &reference, const SimResult &actual)
{
    EXPECT_EQ(reference.cycles, actual.cycles);
    EXPECT_EQ(reference.hitCycleLimit, actual.hitCycleLimit);

    ASSERT_EQ(reference.cores.size(), actual.cores.size());
    for (std::size_t i = 0; i < reference.cores.size(); ++i) {
        const std::string what = "core " + std::to_string(i);
        const CoreStats &a = reference.cores[i].stats;
        const CoreStats &b = actual.cores[i].stats;
        EXPECT_EQ(a.coreCycles, b.coreCycles) << what;
        EXPECT_EQ(a.busyCycles, b.busyCycles) << what;
        for (std::size_t k = 0; k < kNumOpClasses; ++k)
            EXPECT_EQ(a.dispatched[k], b.dispatched[k])
                << what << " op class " << k;
        EXPECT_EQ(a.retired, b.retired) << what;
        EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
        EXPECT_EQ(a.robStallEvents, b.robStallEvents) << what;
        EXPECT_EQ(a.mshrStallEvents, b.mshrStallEvents) << what;
        EXPECT_EQ(reference.cores[i].poweredCycles, actual.cores[i].poweredCycles)
            << what;
        expectIdenticalCache(reference.cores[i].l1i, actual.cores[i].l1i,
                             what + " l1i");
        expectIdenticalCache(reference.cores[i].l1d, actual.cores[i].l1d,
                             what + " l1d");
        expectIdenticalCache(reference.cores[i].l2, actual.cores[i].l2,
                             what + " l2");
    }

    expectIdenticalCache(reference.llc, actual.llc, "llc");
    EXPECT_EQ(reference.dram.reads, actual.dram.reads);
    EXPECT_EQ(reference.dram.writes, actual.dram.writes);
    EXPECT_EQ(reference.dram.totalLatencyCycles, actual.dram.totalLatencyCycles);
    EXPECT_EQ(reference.dram.busBusyCycles, actual.dram.busBusyCycles);
    EXPECT_EQ(reference.xbar.requests, actual.xbar.requests);
    EXPECT_EQ(reference.xbar.totalQueueCycles, actual.xbar.totalQueueCycles);

    ASSERT_EQ(reference.activeThreadFractions.size(),
              actual.activeThreadFractions.size());
    for (std::size_t k = 0; k < reference.activeThreadFractions.size(); ++k)
        EXPECT_EQ(reference.activeThreadFractions[k],
                  actual.activeThreadFractions[k])
            << "histogram bucket " << k;

    ASSERT_EQ(reference.threads.size(), actual.threads.size());
    for (std::size_t i = 0; i < reference.threads.size(); ++i) {
        const std::string what = "thread " + std::to_string(i);
        EXPECT_EQ(reference.threads[i].benchmark, actual.threads[i].benchmark)
            << what;
        EXPECT_EQ(reference.threads[i].budget, actual.threads[i].budget) << what;
        EXPECT_EQ(reference.threads[i].finished, actual.threads[i].finished)
            << what;
        EXPECT_EQ(reference.threads[i].startCycle, actual.threads[i].startCycle)
            << what;
        EXPECT_EQ(reference.threads[i].finishCycle, actual.threads[i].finishCycle)
            << what;
    }
}

} // namespace smtflex

#endif // SMTFLEX_TESTS_COMMON_EXPECT_IDENTICAL_H
