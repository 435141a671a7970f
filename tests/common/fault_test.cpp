/**
 * @file
 * Tests for smtflex::fault — the configuration grammar, the determinism
 * guarantee of the decision stream, the counters and the knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/log.h"

namespace smtflex {
namespace {

using fault::Site;

/** Every test leaves the process with injection disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(FaultTest, DisarmedNeverFires)
{
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fault::shouldFire(Site::kIoWrite));
}

TEST_F(FaultTest, SiteNames)
{
    EXPECT_STREQ(fault::siteName(Site::kIoWrite), "io.write");
    EXPECT_STREQ(fault::siteName(Site::kIoFsync), "io.fsync");
    EXPECT_STREQ(fault::siteName(Site::kIoLoad), "io.load");
    EXPECT_STREQ(fault::siteName(Site::kNetShortRead), "net.short_read");
    EXPECT_STREQ(fault::siteName(Site::kNetShortWrite), "net.short_write");
    EXPECT_STREQ(fault::siteName(Site::kNetEagain), "net.eagain");
    EXPECT_STREQ(fault::siteName(Site::kNetDisconnect), "net.disconnect");
}

TEST_F(FaultTest, BareSiteAlwaysFires)
{
    fault::configure("io.write");
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(fault::shouldFire(Site::kIoWrite));
    EXPECT_EQ(fault::ops(Site::kIoWrite), 10u);
    EXPECT_EQ(fault::fires(Site::kIoWrite), 10u);
    // Unconfigured sites stay silent.
    EXPECT_FALSE(fault::shouldFire(Site::kIoFsync));
}

TEST_F(FaultTest, AfterSkipsLeadingOps)
{
    fault::configure("net.eagain:after=3");
    std::vector<bool> draws;
    for (int i = 0; i < 6; ++i)
        draws.push_back(fault::shouldFire(Site::kNetEagain));
    EXPECT_EQ(draws, (std::vector<bool>{false, false, false, true, true,
                                        true}));
}

TEST_F(FaultTest, LimitCapsFires)
{
    fault::configure("net.disconnect:limit=2");
    unsigned fired = 0;
    for (int i = 0; i < 20; ++i)
        fired += fault::shouldFire(Site::kNetDisconnect) ? 1 : 0;
    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(fault::fires(Site::kNetDisconnect), 2u);
    EXPECT_EQ(fault::ops(Site::kNetDisconnect), 20u);
}

TEST_F(FaultTest, ParamReturnsConfiguredOrFallback)
{
    EXPECT_EQ(fault::param(Site::kNetShortWrite, 50), 50u);
    fault::configure("net.short_write:param=7");
    EXPECT_EQ(fault::param(Site::kNetShortWrite, 50), 7u);
    fault::configure("net.short_write:p=1");
    EXPECT_EQ(fault::param(Site::kNetShortWrite, 50), 50u); // param unset
}

TEST_F(FaultTest, ProbabilityStreamIsDeterministic)
{
    const auto draw = [](const std::string &spec) {
        fault::configure(spec);
        std::vector<bool> draws;
        for (int i = 0; i < 200; ++i)
            draws.push_back(fault::shouldFire(Site::kIoWrite));
        return draws;
    };
    const auto a = draw("io.write:p=0.3;seed=42");
    const auto b = draw("io.write:p=0.3;seed=42");
    EXPECT_EQ(a, b); // reconfiguring restarts the identical stream
    const auto c = draw("io.write:p=0.3;seed=43");
    EXPECT_NE(a, c); // a different seed draws a different stream
    // p = 0.3 over 200 draws: loose sanity band, not a statistics test.
    const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(fired, 20);
    EXPECT_LT(fired, 140);
}

TEST_F(FaultTest, SitesDrawIndependentStreams)
{
    fault::configure("io.write:p=0.5;seed=9,io.load:p=0.5;seed=9");
    std::vector<bool> w, l;
    for (int i = 0; i < 100; ++i) {
        w.push_back(fault::shouldFire(Site::kIoWrite));
        l.push_back(fault::shouldFire(Site::kIoLoad));
    }
    EXPECT_NE(w, l); // the site index salts the hash
}

TEST_F(FaultTest, EmptySpecDisarms)
{
    fault::configure("net.eagain");
    EXPECT_TRUE(fault::shouldFire(Site::kNetEagain));
    fault::configure("");
    EXPECT_FALSE(fault::shouldFire(Site::kNetEagain));
    EXPECT_EQ(fault::ops(Site::kNetEagain), 0u); // counters restarted
}

TEST_F(FaultTest, ResetDisarmsAndZeroes)
{
    fault::configure("io.write");
    (void)fault::shouldFire(Site::kIoWrite);
    fault::reset();
    EXPECT_FALSE(fault::shouldFire(Site::kIoWrite));
    EXPECT_EQ(fault::ops(Site::kIoWrite), 0u);
    EXPECT_EQ(fault::fires(Site::kIoWrite), 0u);
}

TEST_F(FaultTest, MalformedSpecsAreFatal)
{
    EXPECT_THROW(fault::configure("io.wrong"), FatalError);
    EXPECT_THROW(fault::configure("io.write:p"), FatalError);
    EXPECT_THROW(fault::configure("io.write:p=abc"), FatalError);
    EXPECT_THROW(fault::configure("io.write:frequency=2"), FatalError);
    EXPECT_THROW(fault::configure(","), FatalError);
}

TEST_F(FaultTest, RemovedSitesAreUnknown)
{
    // Experiments are deterministic, so nothing retries them and there
    // is no experiment seam left to arm; runs take no mid-run snapshots,
    // so there is no snapshot file to tear or corrupt either.
    EXPECT_THROW(fault::configure("exec.throw"), FatalError);
    EXPECT_THROW(fault::configure("exec.stall:param=7"), FatalError);
    EXPECT_THROW(fault::configure("ckpt.write"), FatalError);
    EXPECT_THROW(fault::configure("ckpt.load:p=0.5"), FatalError);
}

} // namespace
} // namespace smtflex
