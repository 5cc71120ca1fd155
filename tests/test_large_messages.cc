/**
 * @file
 * Tests of MTU segmentation: multi-packet READ/WRITE/SEND messages, their
 * PSN accounting, loss recovery mid-message, and ODP interaction.
 */

#include <gtest/gtest.h>

#include "capture/analysis.hh"
#include "capture/capture.hh"
#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"

using namespace ibsim;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
    return v;
}

struct LargeFixture : public ::testing::Test
{
    Cluster cluster{rnic::DeviceProfile::connectX4(), 2, 29};
    capture::PacketCapture cap{cluster.fabric()};
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    verbs::CompletionQueue& ccq = client.createCq();
    verbs::CompletionQueue& scq = server.createCq();
    verbs::QueuePair cqp;
    verbs::QueuePair sqp;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    verbs::MemoryRegion* smr = nullptr;
    verbs::MemoryRegion* cmr = nullptr;
    static constexpr std::uint64_t bufBytes = 64 * 1024;

    void
    SetUp() override
    {
        auto [a, b] = cluster.connectRc(client, ccq, server, scq);
        cqp = a;
        sqp = b;
        src = server.alloc(bufBytes);
        dst = client.alloc(bufBytes);
        smr = &server.registerMemory(src, bufBytes,
                                     verbs::AccessFlags::pinned());
        cmr = &client.registerMemory(dst, bufBytes,
                                     verbs::AccessFlags::pinned());
    }
};

} // namespace

TEST_F(LargeFixture, LargeReadSegmentsAndReassembles)
{
    const auto data = pattern(20000);  // 5 MTUs
    server.memory().write(src, data);

    cqp.postRead(dst, cmr->lkey(), src, smr->rkey(), 20000, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(1)));
    EXPECT_TRUE(ccq.poll()[0].ok());
    EXPECT_EQ(client.memory().read(dst, 20000), data);

    // One request, five response packets.
    const auto s = capture::summarize(cap);
    EXPECT_EQ(s.perOpcode.at(net::Opcode::ReadRequest), 1u);
    EXPECT_EQ(s.perOpcode.at(net::Opcode::ReadResponse), 5u);
}

TEST_F(LargeFixture, LargeWriteSegmentsWithOneAck)
{
    const auto data = pattern(10000);  // 3 MTUs
    client.memory().write(dst, data);

    cqp.postWrite(dst, cmr->lkey(), src, smr->rkey(), 10000, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(1)));
    EXPECT_EQ(server.memory().read(src, 10000), data);

    const auto s = capture::summarize(cap);
    EXPECT_EQ(s.perOpcode.at(net::Opcode::WriteRequest), 3u);
    EXPECT_EQ(s.perOpcode.at(net::Opcode::Ack), 1u);  // coalesced
}

TEST_F(LargeFixture, LargeSendDeliversOneRqCompletion)
{
    const auto data = pattern(9000);
    client.memory().write(dst, data);
    sqp.postRecv(src, smr->lkey(), bufBytes, 7);
    cqp.postSend(dst, cmr->lkey(), 9000, 8);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return scq.totalCompletions() == 1; }, Time::sec(1)));
    auto wcs = scq.poll();
    EXPECT_EQ(wcs[0].wrId, 7u);
    EXPECT_EQ(server.memory().read(src, 9000), data);
}

TEST_F(LargeFixture, PsnRangeReservedPerMessage)
{
    // A 3-segment WRITE then a 1-segment WRITE: the second message's PSN
    // starts after the first's range.
    cqp.postWrite(dst, cmr->lkey(), src, smr->rkey(), 10000, 1);
    cqp.postWrite(dst, cmr->lkey(), src + 16384, smr->rkey(), 64, 2);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 2; }, Time::sec(1)));

    std::uint32_t max_write_psn = 0;
    for (const auto& e : cap.entries()) {
        if (e.packet.op == net::Opcode::WriteRequest)
            max_write_psn = std::max(max_write_psn, e.packet.psn);
    }
    EXPECT_EQ(max_write_psn, 3u);  // psns 0,1,2 then 3
}

TEST_F(LargeFixture, MidMessageLossRecovers)
{
    // Lose the middle segment of a 5-MTU READ response: the requester's
    // in-order stream stalls and go-back-N re-fetches the whole READ.
    chaos::FaultInjector loss(1);
    loss.addStage(std::make_unique<chaos::MatchOnceDropStage>(
        [](const net::Packet& p) {
            return p.op == net::Opcode::ReadResponse && p.segIndex == 2;
        }));
    cluster.fabric().setFaultHook(&loss);

    const auto data = pattern(20000);
    server.memory().write(src, data);
    cqp.postRead(dst, cmr->lkey(), src, smr->rkey(), 20000, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(30)));
    EXPECT_TRUE(ccq.poll()[0].ok());
    EXPECT_EQ(client.memory().read(dst, 20000), data);
    EXPECT_GE(cqp.stats().timeouts, 1u);
}

TEST_F(LargeFixture, LargeReadAgainstOdpFaultsEveryPage)
{
    const std::uint64_t odp_src = server.alloc(bufBytes);
    auto& odp_mr = server.registerMemory(odp_src, bufBytes,
                                         verbs::AccessFlags::odp());
    server.memory().write(odp_src, pattern(16384));

    cqp.postRead(dst, cmr->lkey(), odp_src, odp_mr.rkey(), 16384, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(2)));
    EXPECT_TRUE(ccq.poll()[0].ok());
    // 16384 bytes = 4 pages, all faulted in one RNR round trip.
    EXPECT_EQ(server.driver().stats().faultsRaised, 4u);
    EXPECT_EQ(odp_mr.table().mappedPages(), 4u);
}

TEST_F(LargeFixture, InterleavedSizesKeepOrderAndData)
{
    const auto big = pattern(12288);
    const auto small = pattern(100);
    server.memory().write(src, big);
    server.memory().write(src + 32768, small);

    cqp.postRead(dst, cmr->lkey(), src, smr->rkey(), 12288, 1);
    cqp.postRead(dst + 16384, cmr->lkey(), src + 32768, smr->rkey(), 100,
                 2);
    cqp.postRead(dst + 20480, cmr->lkey(), src, smr->rkey(), 8192, 3);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 3; }, Time::sec(1)));
    EXPECT_EQ(client.memory().read(dst, 12288), big);
    EXPECT_EQ(client.memory().read(dst + 16384, 100), small);
    EXPECT_EQ(client.memory().read(dst + 20480, 8192),
              std::vector<std::uint8_t>(big.begin(), big.begin() + 8192));
}
