/**
 * @file
 * Tests of the UC transport service and the software-reliability channel
 * built over it (paper Sec. VIII-C design point).
 */

#include <gtest/gtest.h>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "swrel/soft_reliable.hh"

using namespace ibsim;

namespace {

struct UcFixture : public ::testing::Test
{
    Cluster cluster{rnic::DeviceProfile::connectX4(), 2, 23};
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    verbs::CompletionQueue& acq = a.createCq();
    verbs::CompletionQueue& bcq = b.createCq();
    verbs::QueuePair aqp;
    verbs::QueuePair bqp;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    verbs::MemoryRegion* amr = nullptr;
    verbs::MemoryRegion* bmr = nullptr;

    void
    SetUp() override
    {
        verbs::QpConfig uc;
        uc.transport = verbs::Transport::Uc;
        auto [qa, qb] = cluster.connectRc(a, acq, b, bcq, uc);
        aqp = qa;
        bqp = qb;
        src = a.alloc(4096);
        dst = b.alloc(4096);
        a.touch(src, 4096);
        amr = &a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
        bmr = &b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());
    }
};

} // namespace

TEST_F(UcFixture, WriteDeliversWithoutAcks)
{
    a.memory().write(src, std::vector<std::uint8_t>(64, 0x11));
    aqp.postWrite(src, amr->lkey(), dst, bmr->rkey(), 64, 1);
    // UC completes locally at once (fire and forget).
    EXPECT_EQ(acq.totalCompletions(), 1u);
    cluster.drain(Time::ms(1));
    EXPECT_EQ(b.memory().read(dst, 64),
              std::vector<std::uint8_t>(64, 0x11));
    // Exactly one packet: no ACK came back.
    EXPECT_EQ(cluster.fabric().totalSent(), 1u);
}

TEST_F(UcFixture, LossIsSilent)
{
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 1.0));
    cluster.fabric().setFaultHook(&loss);
    aqp.postWrite(src, amr->lkey(), dst, bmr->rkey(), 64, 1);
    EXPECT_EQ(acq.totalCompletions(), 1u);  // sender none the wiser
    cluster.drain(Time::sec(1));
    EXPECT_EQ(b.memory().read(dst, 64),
              std::vector<std::uint8_t>(64, 0));  // never arrived
}

TEST_F(UcFixture, SendWithoutRecvIsDropped)
{
    aqp.postSend(src, amr->lkey(), 32, 1);
    cluster.drain(Time::ms(1));
    EXPECT_EQ(bcq.totalCompletions(), 0u);

    // With a RECV posted, the next SEND lands.
    bqp.postRecv(dst, bmr->lkey(), 4096, 2);
    aqp.postSend(src, amr->lkey(), 32, 3);
    cluster.drain(Time::ms(1));
    EXPECT_EQ(bcq.totalCompletions(), 1u);
}

TEST_F(UcFixture, GapsAreAcceptedWithoutNaks)
{
    // Lose the first of two writes: the second must still apply (UC has
    // no sequence recovery).
    chaos::FaultInjector loss(1);
    loss.addStage(std::make_unique<chaos::MatchOnceDropStage>(
        [](const net::Packet& p) {
            return p.op == net::Opcode::WriteRequest;
        }));
    cluster.fabric().setFaultHook(&loss);
    a.memory().write(src, std::vector<std::uint8_t>(64, 0x22));
    aqp.postWrite(src, amr->lkey(), dst, bmr->rkey(), 64, 1);
    aqp.postWrite(src, amr->lkey(), dst + 64, bmr->rkey(), 64, 2);
    cluster.drain(Time::ms(1));
    EXPECT_EQ(b.memory().read(dst + 64, 64),
              std::vector<std::uint8_t>(64, 0x22));
    EXPECT_EQ(b.memory().read(dst, 64),
              std::vector<std::uint8_t>(64, 0));
}

TEST(SoftReliable, DeliversInOrderWithoutLoss)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 31);
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1));
    for (std::uint8_t i = 0; i < 20; ++i)
        channel.send(std::vector<std::uint8_t>(10, i));

    ASSERT_TRUE(cluster.runUntil([&] { return channel.allAcked(); },
                                 Time::sec(1)));
    ASSERT_EQ(channel.delivered().size(), 20u);
    for (std::uint8_t i = 0; i < 20; ++i)
        EXPECT_EQ(channel.delivered()[i][0], i);
    EXPECT_EQ(channel.stats().retransmissions, 0u);
}

TEST(SoftReliable, RecoversFromLossAtSoftwareTimescale)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 31);
    swrel::SoftChannelConfig config;
    config.retryTimeout = Time::ms(1);
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1), config);
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 0.2));
    cluster.fabric().setFaultHook(&loss);

    for (std::uint8_t i = 0; i < 50; ++i)
        channel.send(std::vector<std::uint8_t>(10, i));

    const Time start = cluster.now();
    ASSERT_TRUE(cluster.runUntil([&] { return channel.allAcked(); },
                                 Time::sec(5)));
    EXPECT_EQ(channel.stats().delivered, 50u);
    EXPECT_EQ(channel.stats().failed, 0u);
    EXPECT_GT(channel.stats().retransmissions, 0u);
    // Recovery at the ~1 ms software timescale -- orders of magnitude
    // below the RC transport's 537 ms floor.
    EXPECT_LT((cluster.now() - start).toMs(), 100.0);
}

TEST(SoftReliable, DuplicatesAreFiltered)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 31);
    swrel::SoftChannelConfig config;
    config.retryTimeout = Time::us(100);
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1), config);
    // Lose only ACKs: the data arrives, the sender retransmits anyway.
    chaos::FaultInjector loss(1);
    loss.addStage(std::make_unique<chaos::MatchOnceDropStage>(
        [](const net::Packet& p) { return p.length == 9; }, 3));
    cluster.fabric().setFaultHook(&loss);

    channel.send({1, 2, 3});
    ASSERT_TRUE(cluster.runUntil([&] { return channel.allAcked(); },
                                 Time::sec(1)));
    EXPECT_EQ(channel.stats().delivered, 1u);
    EXPECT_GT(channel.stats().duplicatesDropped, 0u);
    ASSERT_EQ(channel.delivered().size(), 1u);
    EXPECT_EQ(channel.delivered()[0], (std::vector<std::uint8_t>{1, 2,
                                                                 3}));
}

TEST(SoftReliable, GivesUpAfterMaxRetries)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 31);
    swrel::SoftChannelConfig config;
    config.retryTimeout = Time::us(200);
    config.maxRetries = 3;
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1), config);
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 1.0));
    cluster.fabric().setFaultHook(&loss);

    const std::uint64_t seq = channel.send({9});
    cluster.drain(Time::sec(1));
    EXPECT_EQ(channel.stats().failed, 1u);
    EXPECT_EQ(channel.stats().retransmissions, 3u);
    EXPECT_TRUE(channel.allSettled());  // nothing pending anymore...
    EXPECT_FALSE(channel.allAcked());   // ...but the message was lost
    EXPECT_TRUE(channel.failed(seq));
    EXPECT_FALSE(channel.acked(seq));
}
