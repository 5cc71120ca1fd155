/**
 * @file
 * Property-style parameterized tests of whole-protocol invariants:
 * reliability under injected loss, completion guarantees across
 * micro-benchmark geometries, damming-window laws, and data integrity.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "chaos/fault_injector.hh"
#include "pitfall/microbench.hh"

using namespace ibsim;
using namespace ibsim::pitfall;

namespace {

/** Verify the READ destinations hold the server's fill pattern. */
void
expectDataLanded(MicroBenchmark& bench, const MicroBenchConfig& config)
{
    const auto* mr = bench.clientMr();
    ASSERT_NE(mr, nullptr);
    const auto bytes = bench.client().memory().read(
        mr->addr(), config.numOps * config.size);
    for (std::uint64_t i = 0; i < bytes.size(); ++i) {
        ASSERT_EQ(bytes[i], static_cast<std::uint8_t>(i * 131 + 7))
            << "data mismatch at offset " << i;
    }
}

} // namespace

/**
 * Reliability invariant: whatever the loss rate, RC delivers every
 * operation exactly once with intact data (the paper's Sec. II-C
 * retransmission machinery).
 */
class LossSweep : public ::testing::TestWithParam<double>
{};

TEST_P(LossSweep, AllOpsCompleteWithIntactData)
{
    const double loss_rate = GetParam();
    MicroBenchConfig config;
    config.numOps = 64;
    config.numQps = 4;
    config.size = 100;
    config.interval = Time::us(20);
    config.odpMode = OdpMode::None;
    config.qpConfig.cack = 1;  // clamps to the 537 ms floor
    config.capture = false;
    config.waitLimit = Time::sec(200);

    MicroBenchmark bench(config, rnic::DeviceProfile::knl(), 77);
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, loss_rate));
    bench.cluster().fabric().setFaultHook(&loss);

    auto result = bench.run();
    ASSERT_TRUE(result.completedAll);
    EXPECT_FALSE(result.qpError);
    for (const Time& t : result.completionTimes)
        EXPECT_NE(t, Time::max());
    if (loss_rate > 0.0) {
        EXPECT_GT(result.timeouts + result.seqNaksReceived, 0u);
    }
    expectDataLanded(bench, config);
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.15));

/**
 * Completion invariant: every (QPs, ops, mode) geometry finishes with
 * every completion accounted for and correct data, pitfalls or not.
 */
class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, OdpMode>>
{};

TEST_P(GeometrySweep, EveryOperationCompletesWithData)
{
    const auto [qps, ops, mode] = GetParam();
    MicroBenchConfig config;
    config.numOps = static_cast<std::size_t>(ops);
    config.numQps = static_cast<std::size_t>(qps);
    config.size = 64;
    config.interval = Time::us(15);
    config.odpMode = mode;
    config.qpConfig = MicroBenchConfig::ucxDefaultConfig();
    config.capture = false;
    config.waitLimit = Time::sec(300);

    MicroBenchmark bench(config, rnic::DeviceProfile::knl(), 31);
    auto result = bench.run();
    ASSERT_TRUE(result.completedAll)
        << "qps=" << qps << " ops=" << ops << " mode="
        << odpModeName(mode);
    EXPECT_FALSE(result.qpError);
    for (const Time& t : result.completionTimes)
        EXPECT_NE(t, Time::max());
    expectDataLanded(bench, config);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Combine(::testing::Values(1, 3, 16, 64),
                       ::testing::Values(8, 64, 256),
                       ::testing::Values(OdpMode::None,
                                         OdpMode::ServerSide,
                                         OdpMode::ClientSide,
                                         OdpMode::BothSide)));

/**
 * Damming-window law (paper Figs. 6-7): with two READs on a quirky
 * device, intervals inside the pending window time out and intervals
 * beyond it do not. The window is ~3.5x the RNR delay for server-side
 * ODP and the ~0.5 ms retransmission gap for client-side.
 */
class DammingLawSweep
    : public ::testing::TestWithParam<std::tuple<double, OdpMode>>
{};

TEST_P(DammingLawSweep, TimeoutIffInsideWindow)
{
    const auto [interval_ms, mode] = GetParam();
    MicroBenchConfig config;
    config.numOps = 2;
    config.interval = Time::ms(interval_ms);
    config.odpMode = mode;
    config.capture = false;

    MicroBenchmark bench(config, rnic::DeviceProfile::knl(), 13);
    auto result = bench.run();
    ASSERT_TRUE(result.completedAll);

    const double window_ms =
        mode == OdpMode::ClientSide ? 0.5 : 3.5 * 1.28;
    // Stay clear of the jittered boundary (+-15%).
    if (interval_ms > 0.1 && interval_ms < window_ms * 0.85) {
        EXPECT_GE(result.timeouts, 1u)
            << "interval " << interval_ms << " ms should dam";
        EXPECT_GT(result.executionTime.toMs(), 400.0);
    } else if (interval_ms > window_ms * 1.15) {
        EXPECT_EQ(result.timeouts, 0u)
            << "interval " << interval_ms << " ms should be safe";
        EXPECT_LT(result.executionTime.toMs(), 50.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Intervals, DammingLawSweep,
    ::testing::Combine(::testing::Values(0.3, 1.0, 2.0, 3.5, 5.5, 8.0),
                       ::testing::Values(OdpMode::ServerSide,
                                         OdpMode::ClientSide,
                                         OdpMode::BothSide)));

/**
 * Device-law sweep: the damming quirk follows the profile flag; the
 * timeout floor follows the vendor minimum.
 */
class DeviceSweep : public ::testing::TestWithParam<int>
{};

TEST_P(DeviceSweep, QuirkFollowsProfile)
{
    const auto catalog = rnic::DeviceProfile::table1();
    const auto& profile = catalog[static_cast<std::size_t>(GetParam())];

    MicroBenchConfig config;
    config.numOps = 2;
    config.interval = Time::ms(1);
    config.odpMode = OdpMode::BothSide;
    config.capture = false;

    MicroBenchmark bench(config, profile, 21);
    auto result = bench.run();
    ASSERT_TRUE(result.completedAll);
    if (profile.dammingQuirk) {
        EXPECT_GE(result.timeouts, 1u) << profile.systemName;
    } else {
        EXPECT_EQ(result.timeouts, 0u) << profile.systemName;
    }
}

INSTANTIATE_TEST_SUITE_P(AllTable1Systems, DeviceSweep,
                         ::testing::Range(0, 8));
