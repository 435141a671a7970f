/**
 * @file
 * End-to-end determinism of the parallel experiment engine: a design-space
 * sweep must emit byte-identical CSV for SMTFLEX_JOBS=1 (serial) and
 * SMTFLEX_JOBS=8 (eight workers claiming indices in arbitrary order),
 * because results land by index and every simulation is a deterministic
 * function of its inputs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "exec/thread_pool.h"
#include "study/design_space.h"
#include "study/study_engine.h"

namespace smtflex {
namespace {

StudyOptions
tinyOptions()
{
    StudyOptions opts;
    opts.budget = 4'000;
    opts.warmup = 1'000;
    opts.seed = 12'345;
    opts.cachePath.clear(); // in-memory: no cross-run leakage
    opts.hetMixes = 12;
    return opts;
}

/** A miniature fig03/fig08-style sweep rendered as CSV with full float
 * precision (any drift, however small, must flip a byte). */
std::string
sweepCsv()
{
    StudyEngine eng(tinyOptions());
    std::ostringstream csv;
    csv.precision(17);
    csv << "design,threads,workload,stp,antt,power_w\n";
    for (const char *design : {"4B", "2B4m"}) {
        for (const std::uint32_t n : {1u, 4u, 8u}) {
            const RunMetrics homo = eng.homogeneousAt(paperDesign(design), n);
            csv << design << ',' << n << ",homogeneous," << homo.stp << ','
                << homo.antt << ',' << homo.powerGatedW << '\n';
        }
        const RunMetrics het = eng.heterogeneousAt(paperDesign(design), 4);
        csv << design << ",4,heterogeneous," << het.stp << ',' << het.antt
            << ',' << het.powerGatedW << '\n';
    }
    return csv.str();
}

class DeterminismTest : public ::testing::Test
{
  protected:
    // Leave the process-wide pool serial for whatever test runs next.
    void TearDown() override { exec::ThreadPool::resetGlobalForTesting(1); }
};

TEST_F(DeterminismTest, SweepCsvByteIdenticalSerialVsEightJobs)
{
    exec::ThreadPool::resetGlobalForTesting(1);
    const std::string serial = sweepCsv();
    exec::ThreadPool::resetGlobalForTesting(8);
    const std::string parallel = sweepCsv();
    EXPECT_EQ(serial, parallel);
    // And parallel runs agree with each other across claim orders.
    EXPECT_EQ(parallel, sweepCsv());
    EXPECT_NE(serial.find("4B,1,homogeneous,"), std::string::npos);
}

TEST_F(DeterminismTest, IsolatedIpcTableIdenticalSerialVsParallel)
{
    exec::ThreadPool::resetGlobalForTesting(1);
    std::ostringstream serial, parallel;
    serial.precision(17);
    parallel.precision(17);
    {
        StudyEngine eng(tinyOptions());
        for (const char *b : {"mcf", "hmmer", "tonto"})
            serial << b << '=' << eng.isolatedIpc(b, CoreType::kBig) << ';';
    }
    exec::ThreadPool::resetGlobalForTesting(8);
    {
        StudyEngine eng(tinyOptions());
        eng.offline(); // parallel 12x3 characterisation fan-out
        for (const char *b : {"mcf", "hmmer", "tonto"})
            parallel << b << '=' << eng.isolatedIpc(b, CoreType::kBig)
                     << ';';
    }
    EXPECT_EQ(serial.str(), parallel.str());
}

} // namespace
} // namespace smtflex
