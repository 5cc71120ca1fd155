/**
 * @file
 * Unit tests of the fabric layer: packets, loss stages, delivery timing,
 * capture taps and counters.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "chaos/fault_injector.hh"
#include "net/fabric.hh"
#include "net/packet.hh"

using namespace ibsim;
using namespace ibsim::net;

namespace {

class Sink : public PortHandler
{
  public:
    void receive(const Packet& pkt) override { received.push_back(pkt); }
    std::vector<Packet> received;
};

Packet
makePacket(std::uint16_t dst, Opcode op = Opcode::Send,
           std::uint32_t length = 64)
{
    Packet p;
    p.op = op;
    p.dstLid = dst;
    p.length = length;
    p.payload.assign(length, 0xEE);
    return p;
}

/** Whether one pass of @p injector drops @p pkt. */
bool
drops(chaos::FaultInjector& injector, const Packet& pkt)
{
    std::vector<FaultHook::Delivery> out;
    injector.processPacket(pkt, Time(), out);
    return out.empty();
}

} // namespace

TEST(PacketTest, WireSizeIncludesHeaders)
{
    Packet read_req = makePacket(1, Opcode::ReadRequest, 0);
    Packet send = makePacket(1, Opcode::Send, 100);
    Packet resp = makePacket(1, Opcode::ReadResponse, 100);
    Packet ack = makePacket(1, Opcode::Ack, 0);

    // A READ request carries a RETH but no payload.
    EXPECT_EQ(read_req.wireSize(), 26u + 16u);
    // SEND carries payload on the base header.
    EXPECT_EQ(send.wireSize(), 26u + 100u);
    // Responses carry AETH + payload.
    EXPECT_EQ(resp.wireSize(), 26u + 4u + 100u);
    EXPECT_EQ(ack.wireSize(), 26u + 4u);
}

TEST(PacketTest, StringContainsOpcodeAndFlags)
{
    Packet p = makePacket(7, Opcode::ReadRequest);
    p.psn = 42;
    p.retransmission = true;
    p.dammed = true;
    const std::string s = p.str();
    EXPECT_NE(s.find("READ_REQ"), std::string::npos);
    EXPECT_NE(s.find("psn=42"), std::string::npos);
    EXPECT_NE(s.find("[rexmit]"), std::string::npos);
    EXPECT_NE(s.find("[dammed]"), std::string::npos);
}

TEST(LossTest, NoLossNeverDrops)
{
    chaos::FaultInjector injector(1);
    injector.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 0.0));
    Packet p = makePacket(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(drops(injector, p));
}

TEST(LossTest, BernoulliDropsAtConfiguredRate)
{
    chaos::FaultInjector injector(1);
    injector.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 0.3));
    Packet p = makePacket(1);
    int dropped = 0;
    for (int i = 0; i < 10000; ++i)
        dropped += drops(injector, p) ? 1 : 0;
    EXPECT_NEAR(dropped / 10000.0, 0.3, 0.03);
}

TEST(LossTest, MatchOnceDropsExactlyN)
{
    chaos::FaultInjector injector(1);
    auto owned = std::make_unique<chaos::MatchOnceDropStage>(
        [](const Packet& p) { return p.op == Opcode::ReadResponse; },
        /*count=*/2);
    const chaos::MatchOnceDropStage& stage = *owned;
    injector.addStage(std::move(owned));
    Packet resp = makePacket(1, Opcode::ReadResponse);
    Packet send = makePacket(1, Opcode::Send);
    EXPECT_FALSE(drops(injector, send));
    EXPECT_TRUE(drops(injector, resp));
    EXPECT_TRUE(drops(injector, resp));
    EXPECT_FALSE(drops(injector, resp));
    EXPECT_EQ(stage.remaining(), 0u);
    EXPECT_EQ(injector.stats().dropped, 2u);
}

TEST(FabricTest, DeliversAfterLatencyAndSerialization)
{
    EventQueue events;
    LinkConfig link;
    link.latency = Time::us(1);
    link.bandwidthBytesPerSec = 1e9;  // 1 GB/s for round numbers
    link.perPacketOverhead = Time();
    Fabric fabric(events, link);

    Sink sink;
    fabric.attach(5, sink);

    fabric.send(makePacket(5, Opcode::Send, 1000));
    events.run();
    ASSERT_EQ(sink.received.size(), 1u);
    // Serialization of 1026 bytes at 1 GB/s = 1.026 us, plus 1 us latency.
    EXPECT_NEAR(events.now().toUs(), 2.026, 0.01);
}

TEST(FabricTest, BackToBackPacketsQueueOnTheLink)
{
    EventQueue events;
    LinkConfig link;
    link.latency = Time();
    link.bandwidthBytesPerSec = 1e9;
    link.perPacketOverhead = Time();
    Fabric fabric(events, link);
    Sink sink;
    fabric.attach(5, sink);

    for (int i = 0; i < 3; ++i)
        fabric.send(makePacket(5, Opcode::Send, 974));  // 1000 B on wire
    events.run();
    // Three 1000-byte packets serialize sequentially: last at 3 us.
    EXPECT_NEAR(events.now().toUs(), 3.0, 0.01);
    EXPECT_EQ(sink.received.size(), 3u);
}

TEST(FabricTest, UnknownLidVanishesSilently)
{
    EventQueue events;
    Fabric fabric(events);
    Sink sink;
    fabric.attach(1, sink);

    fabric.send(makePacket(999));
    events.run();
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(fabric.totalSent(), 1u);
    EXPECT_EQ(fabric.totalDropped(), 1u);
    EXPECT_EQ(fabric.totalDelivered(), 0u);
}

TEST(FabricTest, DetachStopsDelivery)
{
    EventQueue events;
    Fabric fabric(events);
    Sink sink;
    fabric.attach(3, sink);
    fabric.detach(3);
    fabric.send(makePacket(3));
    events.run();
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(fabric.totalDropped(), 1u);
}

TEST(FabricTest, MatchOnceDropLosesOnlyTheTargetAndTapSeesIt)
{
    EventQueue events;
    Fabric fabric(events);
    Sink sink;
    fabric.attach(2, sink);
    chaos::FaultInjector injector(1);
    injector.addStage(std::make_unique<chaos::MatchOnceDropStage>(
        [](const Packet& p) { return p.psn == 1; }));
    fabric.setFaultHook(&injector);

    std::vector<std::pair<std::uint32_t, bool>> tapped;
    fabric.addTap([&](const Packet& p, bool dropped) {
        tapped.emplace_back(p.psn, dropped);
    });

    // PSN 1 goes out twice: only its first transmission is lost.
    for (const std::uint32_t psn : {0u, 1u, 2u, 1u}) {
        Packet p = makePacket(2);
        p.psn = psn;
        fabric.send(p);
    }
    events.run();

    const std::vector<std::pair<std::uint32_t, bool>> expected = {
        {0, false}, {1, true}, {2, false}, {1, false}};
    EXPECT_EQ(tapped, expected);
    ASSERT_EQ(sink.received.size(), 3u);
    EXPECT_EQ(sink.received[0].psn, 0u);
    EXPECT_EQ(sink.received[1].psn, 2u);
    EXPECT_EQ(sink.received[2].psn, 1u);
    EXPECT_EQ(fabric.totalDropped(), 1u);
    EXPECT_EQ(injector.stats().dropped, 1u);
}

TEST(FabricTest, WireIdsAreMonotonic)
{
    EventQueue events;
    Fabric fabric(events);
    Sink sink;
    fabric.attach(2, sink);
    const auto id1 = fabric.send(makePacket(2));
    const auto id2 = fabric.send(makePacket(2));
    EXPECT_EQ(id1, 1u);  // lane 0: the id space starts at 1
    EXPECT_LT(id1, id2);
    events.run();
    EXPECT_EQ(sink.received[0].wireId, id1);
    EXPECT_EQ(sink.received[1].wireId, id2);
}

TEST(FabricTest, WireIdsStayUniqueAcrossLanes)
{
    // Two lanes over a two-island kernel: each lane counts from 1 in its
    // own id space, (lane << 44) | n, so ids never collide.
    ShardedKernel kernel(Time::us(0.95), 1);
    kernel.addIsland();
    Fabric fabric(kernel);
    EXPECT_EQ(fabric.addIslandLane(), 1u);
    Sink sink1, sink2;
    fabric.assignLid(1, 0);
    fabric.assignLid(2, 1);
    fabric.attach(1, sink1);
    fabric.attach(2, sink2);
    fabric.declareRoute(1, 2);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        Packet to2 = makePacket(2);
        to2.srcLid = 1;
        ids.push_back(fabric.send(to2));
        Packet to1 = makePacket(1);
        to1.srcLid = 2;
        ids.push_back(fabric.send(to1));
    }
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], (std::uint64_t(1) << 44) | 1u);
    std::vector<std::uint64_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());

    EXPECT_TRUE(kernel.run());
    EXPECT_EQ(sink1.received.size(), 3u);
    EXPECT_EQ(sink2.received.size(), 3u);
    EXPECT_EQ(fabric.totalDelivered(), 6u);
}

TEST(FabricTest, SameIslandPacketToDownPortIsTappedAsDropped)
{
    EventQueue events;
    Fabric fabric(events);
    Sink sink;
    fabric.attach(2, sink);
    fabric.setPortState(2, PortState::Down);
    std::vector<bool> tapped;
    fabric.addTap([&](const Packet&, bool dropped) {
        tapped.push_back(dropped);
    });

    fabric.send(makePacket(2));
    events.run();
    EXPECT_EQ(tapped, std::vector<bool>{true});
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(fabric.totalDropped(), 1u);
    EXPECT_EQ(fabric.totalPortEventDrops(), 1u);
}
