/**
 * @file
 * Tests of the capture toolchain: recording, filtering, trace formatting,
 * summaries, and the pitfall detectors on synthetic and real captures.
 */

#include <gtest/gtest.h>

#include <memory>

#include "capture/analysis.hh"
#include "capture/capture.hh"
#include "capture/trace_format.hh"
#include "cluster/cluster.hh"
#include "pitfall/detectors.hh"

using namespace ibsim;
using namespace ibsim::capture;

namespace {

/** A two-node cluster with a capture and one pinned READ issued. */
struct CaptureFixture : public ::testing::Test
{
    Cluster cluster{rnic::DeviceProfile::connectX4(), 2, 7};
    PacketCapture capture{cluster.fabric()};
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    verbs::CompletionQueue& cq = client.createCq();
    verbs::CompletionQueue& scq = server.createCq();

    void
    issueRead()
    {
        auto [cqp, sqp] = cluster.connectRc(client, cq, server, scq);
        const auto src = server.alloc(4096);
        const auto dst = client.alloc(4096);
        auto& smr = server.registerMemory(src, 4096,
                                          verbs::AccessFlags::pinned());
        auto& cmr = client.registerMemory(dst, 4096,
                                          verbs::AccessFlags::pinned());
        cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
        cluster.runUntil([&] { return cq.totalCompletions() == 1; });
    }
};

} // namespace

TEST_F(CaptureFixture, RecordsRequestAndResponse)
{
    issueRead();
    ASSERT_EQ(capture.size(), 2u);
    EXPECT_EQ(capture.entries()[0].packet.op, net::Opcode::ReadRequest);
    EXPECT_EQ(capture.entries()[1].packet.op, net::Opcode::ReadResponse);
    EXPECT_LT(capture.entries()[0].when, capture.entries()[1].when);
    // Payload bytes are stripped to keep flood captures small.
    EXPECT_TRUE(capture.entries()[1].packet.payload.empty());
    EXPECT_EQ(capture.entries()[1].packet.length, 100u);
}

TEST(CaptureLifetime, DestroyedCaptureLeavesNoTapBehind)
{
    // The sanitizer job turns a leftover tap into a use-after-free.
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 7);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& cq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, cq, server, scq);
    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096, verbs::AccessFlags::pinned());

    auto capture = std::make_unique<PacketCapture>(cluster.fabric());
    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
    ASSERT_TRUE(cluster.runUntil([&] { return cq.totalCompletions() == 1; },
                                 cluster.now() + Time::sec(1)));
    EXPECT_EQ(capture->size(), 2u);
    capture.reset();

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 2);
    EXPECT_TRUE(cluster.runUntil([&] { return cq.totalCompletions() == 2; },
                                 cluster.now() + Time::sec(1)));
}

TEST_F(CaptureFixture, RecordingCanBePaused)
{
    capture.setRecording(false);
    issueRead();
    EXPECT_EQ(capture.size(), 0u);
}

TEST_F(CaptureFixture, FilterAndConnectionSelectors)
{
    issueRead();
    auto reqs = capture.filter([](const CaptureEntry& e) {
        return e.packet.op == net::Opcode::ReadRequest;
    });
    EXPECT_EQ(reqs.size(), 1u);

    const auto qpn_a = capture.entries()[0].packet.srcQpn;
    const auto qpn_b = capture.entries()[0].packet.dstQpn;
    EXPECT_EQ(capture.connection(qpn_a, qpn_b).size(), 2u);
    EXPECT_EQ(capture.connection(9999, 9998).size(), 0u);
}

TEST_F(CaptureFixture, FlatAndWorkflowFormats)
{
    issueRead();
    const std::string flat = formatFlat(capture);
    EXPECT_NE(flat.find("READ_REQ"), std::string::npos);
    EXPECT_NE(flat.find("READ_RESP"), std::string::npos);

    const std::string flow = formatWorkflow(capture, client.lid());
    EXPECT_NE(flow.find("-->"), std::string::npos);
    EXPECT_NE(flow.find("<--"), std::string::npos);
    // Client sends the request (left column, arrow out).
    const auto req_pos = flow.find("READ_REQ");
    const auto resp_pos = flow.find("READ_RESP");
    ASSERT_NE(req_pos, std::string::npos);
    ASSERT_NE(resp_pos, std::string::npos);
    EXPECT_LT(req_pos, resp_pos);
}

TEST_F(CaptureFixture, SummaryCountsOpcodesAndGaps)
{
    issueRead();
    const auto s = summarize(capture);
    EXPECT_EQ(s.totalPackets, 2u);
    EXPECT_EQ(s.droppedPackets, 0u);
    EXPECT_EQ(s.retransmissions, 0u);
    EXPECT_EQ(s.perOpcode.at(net::Opcode::ReadRequest), 1u);
    EXPECT_GT(s.largestGap, Time());
    EXPECT_FALSE(s.str().empty());
}

TEST(DetectorSynthetic, DammingNeedsRetransmissionAfterGap)
{
    // Build a capture-like sequence by hand through a fabric tap.
    EventQueue events;
    net::Fabric fabric(events);
    PacketCapture cap(fabric);

    auto send_at = [&](Time when, net::Opcode op, bool rexmit,
                       std::uint32_t psn) {
        events.schedule(when, [&fabric, op, rexmit, psn] {
            net::Packet p;
            p.op = op;
            p.srcQpn = 100;
            p.dstQpn = 200;
            p.dstLid = 99;  // vanishes; the tap still records
            p.psn = psn;
            p.retransmission = rexmit;
            fabric.send(std::move(p));
        });
    };

    send_at(Time::ms(0), net::Opcode::ReadRequest, false, 0);
    send_at(Time::ms(1), net::Opcode::ReadRequest, false, 1);
    // Long silence, then a timeout-driven retransmission.
    send_at(Time::ms(538), net::Opcode::ReadRequest, true, 1);
    events.run();

    auto damming = pitfall::detectDamming(cap);
    ASSERT_EQ(damming.size(), 1u);
    EXPECT_EQ(damming[0].qpn, 100u);
    EXPECT_EQ(damming[0].stuckPsn, 1u);
    EXPECT_NEAR(damming[0].gap.toMs(), 537.0, 1.0);

    // No flood: each PSN retransmitted at most once.
    EXPECT_TRUE(pitfall::detectFlood(cap).empty());
    EXPECT_NE(pitfall::formatReport(damming).find("packet damming"),
              std::string::npos);
}

TEST(DetectorSynthetic, FloodNeedsRepeatedRetransmissions)
{
    EventQueue events;
    net::Fabric fabric(events);
    PacketCapture cap(fabric);

    for (int i = 0; i < 30; ++i) {
        events.schedule(Time::us(500) * static_cast<double>(i),
                        [&fabric, i] {
                            net::Packet p;
                            p.op = net::Opcode::ReadRequest;
                            p.srcQpn = 42;
                            p.dstLid = 99;
                            p.psn = 7;
                            p.retransmission = i > 0;
                            fabric.send(std::move(p));
                        });
    }
    events.run();

    auto floods = pitfall::detectFlood(cap);
    ASSERT_EQ(floods.size(), 1u);
    EXPECT_EQ(floods[0].qpn, 42u);
    EXPECT_EQ(floods[0].psn, 7u);
    EXPECT_EQ(floods[0].retransmissions, 29u);
    EXPECT_TRUE(pitfall::detectDamming(cap).empty());
    EXPECT_NE(pitfall::formatReport(floods).find("packet flood"),
              std::string::npos);
}

TEST(DetectorSynthetic, EmptyReportsSaySo)
{
    EXPECT_NE(pitfall::formatReport(std::vector<pitfall::DammingEvent>{})
                  .find("no damming"),
              std::string::npos);
    EXPECT_NE(pitfall::formatReport(std::vector<pitfall::FloodEvent>{})
                  .find("no flood"),
              std::string::npos);
}
