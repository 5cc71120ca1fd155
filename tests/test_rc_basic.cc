/**
 * @file
 * End-to-end smoke tests of the RC transport over the simulated fabric:
 * pinned READ/WRITE/SEND data movement, wrong-LID timeouts, and the basic
 * ODP fault flows on both sides.
 */

#include <gtest/gtest.h>

#include "capture/analysis.hh"
#include "capture/capture.hh"
#include "cluster/cluster.hh"
#include "rnic/timeout.hh"

using namespace ibsim;

namespace {

std::vector<std::uint8_t>
patternBytes(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

struct TwoNodes
{
    Cluster cluster;
    Node& client;
    Node& server;
    verbs::CompletionQueue& clientCq;
    verbs::CompletionQueue& serverCq;

    explicit TwoNodes(rnic::DeviceProfile profile =
                          rnic::DeviceProfile::connectX4(),
                      std::uint64_t seed = 42)
        : cluster(std::move(profile), 2, seed), client(cluster.node(0)),
          server(cluster.node(1)), clientCq(client.createCq()),
          serverCq(server.createCq())
    {}
};

} // namespace

TEST(RcBasic, PinnedReadMovesData)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.server.alloc(4096);
    const std::uint64_t dst = t.client.alloc(4096);
    auto& smr = t.server.registerMemory(src, 4096,
                                        verbs::AccessFlags::pinned());
    auto& cmr = t.client.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    const auto data = patternBytes(256, 3);
    t.server.memory().write(src, data);

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 256, /*wr_id=*/1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(1)));

    auto wcs = t.clientCq.poll();
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].wrId, 1u);
    EXPECT_TRUE(wcs[0].ok());
    EXPECT_EQ(t.client.memory().read(dst, 256), data);
    // A pinned READ is one request, one response: round trip of a few us.
    EXPECT_LT(t.cluster.now().toUs(), 20.0);
}

TEST(RcBasic, PinnedWriteMovesData)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.client.alloc(4096);
    const std::uint64_t dst = t.server.alloc(4096);
    auto& cmr = t.client.registerMemory(src, 4096,
                                        verbs::AccessFlags::pinned());
    auto& smr = t.server.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    const auto data = patternBytes(100, 9);
    t.client.memory().write(src, data);

    cqp.postWrite(src, cmr.lkey(), dst, smr.rkey(), 100, 7);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(1)));

    EXPECT_TRUE(t.clientCq.poll()[0].ok());
    EXPECT_EQ(t.server.memory().read(dst, 100), data);
}

TEST(RcBasic, SendRecvMovesDataAndCompletesBothSides)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.client.alloc(4096);
    const std::uint64_t dst = t.server.alloc(4096);
    auto& cmr = t.client.registerMemory(src, 4096,
                                        verbs::AccessFlags::pinned());
    auto& smr = t.server.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    const auto data = patternBytes(64, 1);
    t.client.memory().write(src, data);

    sqp.postRecv(dst, smr.lkey(), 4096, /*wr_id=*/100);
    cqp.postSend(src, cmr.lkey(), 64, /*wr_id=*/200);

    ASSERT_TRUE(t.cluster.runUntil(
        [&] {
            return t.clientCq.totalCompletions() == 1 &&
                   t.serverCq.totalCompletions() == 1;
        },
        Time::sec(1)));

    auto swc = t.serverCq.poll();
    ASSERT_EQ(swc.size(), 1u);
    EXPECT_EQ(swc[0].wrId, 100u);
    EXPECT_EQ(swc[0].opcode, verbs::WrOpcode::Recv);
    EXPECT_EQ(swc[0].byteLen, 64u);
    EXPECT_EQ(t.server.memory().read(dst, 64), data);

    auto cwc = t.clientCq.poll();
    ASSERT_EQ(cwc.size(), 1u);
    EXPECT_EQ(cwc[0].wrId, 200u);
}

TEST(RcBasic, SendWithoutRecvGetsRnrNakThenCompletes)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.client.alloc(4096);
    const std::uint64_t dst = t.server.alloc(4096);
    auto& cmr = t.client.registerMemory(src, 4096,
                                        verbs::AccessFlags::pinned());
    auto& smr = t.server.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postSend(src, cmr.lkey(), 32, 1);
    // Post the RECV only after the RNR NAK round trip started.
    t.cluster.advance(Time::ms(1));
    sqp.postRecv(dst, smr.lkey(), 4096, 2);

    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_GE(cqp.stats().rnrNaksReceived, 1u);
    EXPECT_TRUE(t.clientCq.poll()[0].ok());
}

// The RNR retry budget is infinite (the IBA's 7): a SEND that meets no
// RECV for 40 ms, at least 8 RNR waits of ~4.5 ms, still completes.
TEST(RcBasic, RnrWaitsNeverAbortTheSend)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.client.alloc(4096);
    const std::uint64_t dst = t.server.alloc(4096);
    auto& cmr = t.client.registerMemory(src, 4096,
                                        verbs::AccessFlags::pinned());
    auto& smr = t.server.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postSend(src, cmr.lkey(), 32, 1);
    t.cluster.advance(Time::ms(40));
    EXPECT_EQ(t.clientCq.totalCompletions(), 0u);
    sqp.postRecv(dst, smr.lkey(), 4096, 2);

    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_GE(cqp.stats().rnrNaksReceived, 8u);
    EXPECT_EQ(t.clientCq.poll()[0].status, verbs::WcStatus::Success);
}

TEST(RcBasic, WrongLidTimesOutWithRetryExcErr)
{
    TwoNodes t;
    verbs::QpConfig config;
    config.cack = 14;
    config.cretry = 7;
    auto cqp = t.client.createQp(t.clientCq, config);
    cqp.connect(/*dst_lid=*/99, /*dst_qpn=*/555);  // nobody home

    const std::uint64_t dst = t.client.alloc(4096);
    auto& cmr = t.client.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postRead(dst, cmr.lkey(), 0x20000000, 1, 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(60)));

    auto wcs = t.clientCq.poll();
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::RetryExcErr);
    EXPECT_EQ(cqp.context().state, rnic::QpState::Error);

    // Abort time = (cretry + 1) * T_o; T_o = 2 * T_tr(max(14, 16)).
    const Time to = rnic::detectionTime(config.cack,
                                        t.client.rnic().profile());
    const double expected = 8.0 * to.toSec();
    EXPECT_NEAR(t.cluster.now().toSec(), expected, 0.05 * expected);
}

TEST(RcBasic, ReadFromUnregisteredKeyFailsWithRemAccessErr)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t dst = t.client.alloc(4096);
    auto& cmr = t.client.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postRead(dst, cmr.lkey(), 0x20000000, /*bogus rkey=*/4242, 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(1)));
    EXPECT_EQ(t.clientCq.poll()[0].status, verbs::WcStatus::RemAccessErr);
}

TEST(OdpBasic, ServerSideFaultResolvesViaRnrNak)
{
    TwoNodes t;
    capture::PacketCapture cap(t.cluster.fabric());
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.server.alloc(4096);
    const std::uint64_t dst = t.client.alloc(4096);
    auto& smr =
        t.server.registerMemory(src, 4096, verbs::AccessFlags::odp());
    auto& cmr = t.client.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_TRUE(t.clientCq.poll()[0].ok());

    // The workflow of Fig. 1 (left): RNR NAK, then an RNR-delay wait
    // dominated by ~3.5 x 1.28 ms.
    auto sum = capture::summarize(cap);
    EXPECT_GE(sum.rnrNaks, 1u);
    EXPECT_GT(t.cluster.now().toMs(), 3.0);
    EXPECT_LT(t.cluster.now().toMs(), 8.0);
    EXPECT_EQ(t.server.driver().stats().faultsResolved, 1u);
}

TEST(OdpBasic, ClientSideFaultResolvesViaBlindRetransmission)
{
    TwoNodes t;
    capture::PacketCapture cap(t.cluster.fabric());
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.server.alloc(4096);
    const std::uint64_t dst = t.client.alloc(4096);
    auto& smr = t.server.registerMemory(src, 4096,
                                        verbs::AccessFlags::pinned());
    auto& cmr =
        t.client.registerMemory(dst, 4096, verbs::AccessFlags::odp());

    const auto data = patternBytes(100, 5);
    t.server.memory().write(src, data);

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_TRUE(t.clientCq.poll()[0].ok());
    EXPECT_EQ(t.client.memory().read(dst, 100), data);

    // Client-side ODP: at least one response discarded, the request
    // retransmitted on the ~0.5 ms blind loop, no RNR NAK involved.
    auto sum = capture::summarize(cap);
    EXPECT_EQ(sum.rnrNaks, 0u);
    EXPECT_GE(cqp.stats().responsesDiscardedFault, 1u);
    EXPECT_GE(cqp.stats().retransmissions, 1u);
    EXPECT_EQ(t.client.driver().stats().faultsResolved, 1u);
    // Latency: fault latency rounded up to the next 0.5 ms rexmit slot.
    EXPECT_GT(t.cluster.now().toUs(), 250.0);
    EXPECT_LT(t.cluster.now().toMs(), 3.0);
}

TEST(OdpBasic, SenderSideFaultDefersSendUntilResolution)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.client.alloc(4096);
    const std::uint64_t dst = t.server.alloc(4096);
    auto& cmr =
        t.client.registerMemory(src, 4096, verbs::AccessFlags::odp());
    auto& smr = t.server.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postWrite(src, cmr.lkey(), dst, smr.rkey(), 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_TRUE(t.clientCq.poll()[0].ok());
    EXPECT_EQ(t.client.driver().stats().faultsResolved, 1u);
    EXPECT_GT(t.cluster.now().toUs(), 250.0);
}

TEST(OdpBasic, PrefetchAvoidsFaults)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.server.alloc(4096);
    const std::uint64_t dst = t.client.alloc(4096);
    auto& smr =
        t.server.registerMemory(src, 4096, verbs::AccessFlags::odp());
    auto& cmr = t.client.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    t.server.prefetch(smr, src, 4096);
    t.cluster.advance(Time::ms(1));

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(1)));
    EXPECT_TRUE(t.clientCq.poll()[0].ok());
    EXPECT_EQ(t.server.driver().stats().faultsRaised, 0u);
    EXPECT_EQ(t.server.driver().stats().prefetchedPages, 1u);
    // No fault: the READ completes at wire speed after the prefetch.
    EXPECT_LT((t.cluster.now() - Time::ms(1)).toUs(), 20.0);
}

TEST(OdpBasic, InvalidationForcesRefault)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.server.alloc(4096);
    const std::uint64_t dst = t.client.alloc(4096);
    auto& smr =
        t.server.registerMemory(src, 4096, verbs::AccessFlags::odp());
    auto& cmr = t.client.registerMemory(dst, 4096,
                                        verbs::AccessFlags::pinned());

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_EQ(t.server.driver().stats().faultsRaised, 1u);

    // Kernel reclaims the page; the next READ must fault again.
    t.server.invalidate(smr, src);
    t.cluster.advance(Time::ms(1));
    EXPECT_EQ(smr.table().mappedPages(), 0u);

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 2);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 2; },
        Time::sec(2)));
    EXPECT_EQ(t.server.driver().stats().faultsRaised, 2u);
}

TEST(OdpBasic, BothSideOdpSingleReadCompletes)
{
    TwoNodes t;
    auto [cqp, sqp] = t.cluster.connectRc(t.client, t.clientCq, t.server,
                                          t.serverCq);

    const std::uint64_t src = t.server.alloc(4096);
    const std::uint64_t dst = t.client.alloc(4096);
    auto& smr =
        t.server.registerMemory(src, 4096, verbs::AccessFlags::odp());
    auto& cmr =
        t.client.registerMemory(dst, 4096, verbs::AccessFlags::odp());

    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
    ASSERT_TRUE(t.cluster.runUntil(
        [&] { return t.clientCq.totalCompletions() == 1; },
        Time::sec(2)));
    EXPECT_TRUE(t.clientCq.poll()[0].ok());
    EXPECT_EQ(t.server.driver().stats().faultsResolved, 1u);
    EXPECT_EQ(t.client.driver().stats().faultsResolved, 1u);
}
