/**
 * @file
 * Tests of the Sec. IX-A workaround components: the dummy-communication
 * timer and the flood-rescue QP pool.
 */

#include <gtest/gtest.h>

#include "pitfall/microbench.hh"
#include "pitfall/workarounds.hh"

using namespace ibsim;
using namespace ibsim::pitfall;

TEST(DummyCommTimer, PostsPeriodicallyAndStops)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 5);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);

    const auto dl = client.alloc(4096);
    const auto dr = server.alloc(4096);
    auto& cmr = client.registerMemory(dl, 4096,
                                      verbs::AccessFlags::pinned());
    auto& smr = server.registerMemory(dr, 4096,
                                      verbs::AccessFlags::pinned());

    DummyCommTimer timer(cluster, cqp, dl, cmr.lkey(), dr, smr.rkey(),
                         Time::ms(2));
    EXPECT_FALSE(timer.running());
    timer.start();
    timer.start();  // idempotent
    EXPECT_TRUE(timer.running());

    cluster.advance(Time::ms(11));
    EXPECT_EQ(timer.dummiesPosted(), 5u);
    // Dummy completions carry the reserved wr_id namespace.
    for (const auto& wc : ccq.poll()) {
        EXPECT_GE(wc.wrId, DummyCommTimer::dummyWrIdBase);
        EXPECT_TRUE(wc.ok());
    }

    timer.stop();
    cluster.advance(Time::ms(10));
    EXPECT_EQ(timer.dummiesPosted(), 5u);  // no more posts
}

TEST(DummyCommTimer, DefeatsDammingInTheMicrobench)
{
    // The headline A/B: the 2-READ damming case recovers via the dummy's
    // PSN-sequence-error NAK instead of the 537 ms timeout.
    MicroBenchConfig config;
    config.numOps = 2;
    config.interval = Time::ms(1);
    config.odpMode = OdpMode::BothSide;
    config.capture = false;
    MicroBenchmark bench(config, rnic::DeviceProfile::knl(), 7);

    Node& client = bench.client();
    Node& server = bench.server();
    const auto dl = client.alloc(4096);
    const auto dr = server.alloc(4096);
    auto& cmr = client.registerMemory(dl, 4096,
                                      verbs::AccessFlags::pinned());
    auto& smr = server.registerMemory(dr, 4096,
                                      verbs::AccessFlags::pinned());

    std::unique_ptr<DummyCommTimer> timer;
    bench.cluster().events().scheduleAfter(Time::us(1), [&] {
        timer = std::make_unique<DummyCommTimer>(
            bench.cluster(), bench.clientQps()[0], dl, cmr.lkey(), dr,
            smr.rkey(), Time::ms(5));
        timer->start();
    });

    auto r = bench.run();
    timer->stop();
    ASSERT_TRUE(r.completedAll);
    EXPECT_EQ(r.timeouts, 0u);
    EXPECT_GE(r.seqNaksReceived, 1u);  // the dummy provoked recovery
    EXPECT_LT(r.executionTime.toMs(), 30.0);
}

TEST(FloodRescue, RotatesThePoolAndDeliversData)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 5);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& cq = client.createCq();

    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    server.memory().write(src, std::vector<std::uint8_t>(64, 0x66));

    FloodRescue rescue(cluster, client, server, cq, verbs::QpConfig{},
                       /*pool_size=*/3);
    auto& q1 = rescue.rescue(dst, cmr.lkey(), src, smr.rkey(), 64, 1);
    auto& q2 = rescue.rescue(dst, cmr.lkey(), src, smr.rkey(), 64, 2);
    auto& q3 = rescue.rescue(dst, cmr.lkey(), src, smr.rkey(), 64, 3);
    auto& q4 = rescue.rescue(dst, cmr.lkey(), src, smr.rkey(), 64, 4);
    EXPECT_NE(q1.qpn(), q2.qpn());
    EXPECT_NE(q2.qpn(), q3.qpn());
    EXPECT_EQ(q1.qpn(), q4.qpn());  // round-robin wrap
    EXPECT_EQ(rescue.rescuesIssued(), 4u);

    ASSERT_TRUE(cluster.runUntil(
        [&] { return cq.totalSuccess() >= 4; }, Time::sec(1)));
    EXPECT_EQ(client.memory().read(dst, 64),
              std::vector<std::uint8_t>(64, 0x66));
}
