/**
 * @file
 * Edge-case coverage: deregistration, event-queue compaction under mass
 * cancellation, time extremes, RNG tails, and error paths not exercised
 * elsewhere.
 */

#include <gtest/gtest.h>

#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/stats.hh"

using namespace ibsim;

TEST(EdgeCases, DeregisteredKeyFailsRemoteAccess)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);

    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());

    // Works before deregistration...
    cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 64, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(1)));
    EXPECT_TRUE(ccq.poll()[0].ok());

    // ...and NAKs after: the rkey no longer resolves.
    server.deregisterMemory(smr);
    auto cqp2 = cluster
                    .connectRc(client, ccq, server, scq)
                    .first;  // fresh QP: the old one is fine, but reuse
    cqp2.postRead(dst, cmr.lkey(), src, smr.rkey(), 64, 2);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 2; }, Time::sec(1)));
    EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::RemAccessErr);
}

// A remote range that runs past 2^64 is outside the region: its end
// address must not wrap around to below the region's end.
TEST(EdgeCases, RemoteRangeThatWrapsFailsWithRemoteAccessError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto cqp = cluster.connectRc(client, ccq, server, scq).first;

    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    cqp.postRead(dst, cmr.lkey(), ~std::uint64_t{0} - 7, smr.rkey(), 16, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(1)));
    EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::RemAccessErr);
}

// A local buffer the lkey does not cover completes the WR with
// LOC_PROT_ERR at post time and moves the QP to Error, for every opcode
// with a local buffer; it never reaches the transport engine.
TEST(EdgeCases, BadLocalKeyOrRangeFailsWithLocalProtectionError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();

    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());

    struct Case
    {
        verbs::WrOpcode op;
        std::uint32_t lkey;
        std::uint64_t laddr;
    };
    const Case cases[] = {
        {verbs::WrOpcode::Read, 999, dst},
        {verbs::WrOpcode::Read, cmr.lkey(), dst + 4096 - 32},
        {verbs::WrOpcode::Write, 999, dst},
        {verbs::WrOpcode::Write, cmr.lkey(), dst + 4096 - 32},
        {verbs::WrOpcode::Send, 999, dst},
        {verbs::WrOpcode::Send, cmr.lkey(), dst + 4096 - 32},
        // laddr + length wraps past 2^64.
        {verbs::WrOpcode::Write, cmr.lkey(), ~std::uint64_t{0} - 7},
    };
    std::uint64_t wr_id = 0;
    for (const Case& c : cases) {
        auto cqp = cluster.connectRc(client, ccq, server, scq).first;
        ++wr_id;
        switch (c.op) {
          case verbs::WrOpcode::Read:
            cqp.postRead(c.laddr, c.lkey, src, smr.rkey(), 64, wr_id);
            break;
          case verbs::WrOpcode::Write:
            cqp.postWrite(c.laddr, c.lkey, src, smr.rkey(), 64, wr_id);
            break;
          default:
            cqp.postSend(c.laddr, c.lkey, 64, wr_id);
            break;
        }
        ASSERT_TRUE(cluster.runUntil(
            [&] { return ccq.totalCompletions() == 2 * wr_id - 1; },
            Time::sec(1)));
        const auto failed = ccq.poll();
        ASSERT_EQ(failed.size(), 1u) << wr_id;
        EXPECT_EQ(failed[0].wrId, wr_id);
        EXPECT_EQ(failed[0].status, verbs::WcStatus::LocProtErr) << wr_id;
        EXPECT_STREQ(verbs::wcStatusName(failed[0].status), "LOC_PROT_ERR");

        // The QP is in Error: a valid WR now flushes.
        cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 64, 100 + wr_id);
        ASSERT_TRUE(cluster.runUntil(
            [&] { return ccq.totalCompletions() == 2 * wr_id; },
            Time::sec(1)));
        EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::WrFlushErr)
            << wr_id;
    }
    EXPECT_EQ(server.rnic().stats().packetsReceived, 0u);
}

namespace {

// The client posts a WR, then deregisters its local MR while the WR is
// outstanding. When the RNIC next touches the local buffer (a READ
// response landing, an ODP WRITE's source faults resolving) the WR
// completes with LOC_PROT_ERR and the QP moves to Error, as a bad lkey
// does at post time. No data moves.
void
expectDeregisteredLocalMrFails(verbs::WrOpcode op, verbs::AccessFlags access)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto cqp = cluster.connectRc(client, ccq, server, scq).first;

    const auto remote = server.alloc(4096);
    const auto local = client.alloc(4096);
    const std::vector<std::uint8_t> pattern(64, 0x5a);
    server.memory().write(remote, pattern);
    auto& smr = server.registerMemory(remote, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(local, 4096, access);
    if (op == verbs::WrOpcode::Read)
        cqp.postRead(local, cmr.lkey(), remote, smr.rkey(), 64, 1);
    else
        cqp.postWrite(local, cmr.lkey(), remote, smr.rkey(), 64, 1);
    client.deregisterMemory(cmr);

    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(1)));
    const auto failed = ccq.poll();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0].wrId, 1u);
    EXPECT_EQ(failed[0].status, verbs::WcStatus::LocProtErr);
    if (op == verbs::WrOpcode::Read) {
        EXPECT_NE(client.memory().read(local, 64), pattern);
    } else {
        EXPECT_EQ(server.rnic().stats().packetsReceived, 0u);
        EXPECT_EQ(server.memory().read(remote, 64), pattern);
    }

    // The QP is in Error: the next WR flushes.
    auto& fresh = client.registerMemory(local, 4096, access);
    cqp.postRead(local, fresh.lkey(), remote, smr.rkey(), 64, 2);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 2; }, Time::sec(1)));
    EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::WrFlushErr);
}

} // namespace

TEST(EdgeCases, ReadIntoDeregisteredPinnedMrFailsWithLocalProtectionError)
{
    expectDeregisteredLocalMrFails(verbs::WrOpcode::Read,
                                   verbs::AccessFlags::pinned());
}

TEST(EdgeCases, ReadIntoDeregisteredOdpMrFailsWithLocalProtectionError)
{
    expectDeregisteredLocalMrFails(verbs::WrOpcode::Read,
                                   verbs::AccessFlags::odp());
}

TEST(EdgeCases, OdpWriteFromDeregisteredMrFailsWithLocalProtectionError)
{
    expectDeregisteredLocalMrFails(verbs::WrOpcode::Write,
                                   verbs::AccessFlags::odp());
}

// A pinned WRITE queued behind the pipelining window reads its payload
// only when it is transmitted. If its source MR is deregistered while it
// waits, the transmission fails the WR with LOC_PROT_ERR and moves the
// QP to Error; the released bytes never reach the server.
TEST(EdgeCases, QueuedWriteFromDeregisteredMrFailsWithLocalProtectionError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    verbs::QpConfig config;
    config.maxInflight = 1;
    auto cqp = cluster.connectRc(client, ccq, server, scq, config).first;

    const auto remote = server.alloc(4096);
    const auto first = client.alloc(4096);
    const auto second = client.alloc(4096);
    const std::vector<std::uint8_t> zeros(64, 0);
    client.memory().write(first, std::vector<std::uint8_t>(64, 0x11));
    client.memory().write(second, std::vector<std::uint8_t>(64, 0x77));
    auto& smr = server.registerMemory(remote, 4096,
                                      verbs::AccessFlags::pinned());
    auto& mr1 = client.registerMemory(first, 4096,
                                      verbs::AccessFlags::pinned());
    auto& mr2 = client.registerMemory(second, 4096,
                                      verbs::AccessFlags::pinned());
    cqp.postWrite(first, mr1.lkey(), remote, smr.rkey(), 64, 1);
    cqp.postWrite(second, mr2.lkey(), remote + 64, smr.rkey(), 64, 2);
    client.deregisterMemory(mr2);

    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 2; }, Time::sec(1)));
    const auto wcs = ccq.poll();
    ASSERT_EQ(wcs.size(), 2u);
    EXPECT_EQ(wcs[0].wrId, 1u);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::Success);
    EXPECT_EQ(wcs[1].wrId, 2u);
    EXPECT_EQ(wcs[1].status, verbs::WcStatus::LocProtErr);
    EXPECT_EQ(server.memory().read(remote + 64, 64), zeros);

    // The QP is in Error: the next WR flushes.
    cqp.postWrite(first, mr1.lkey(), remote, smr.rkey(), 64, 3);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 3; }, Time::sec(1)));
    EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::WrFlushErr);
}

// A QP destroyed while an ODP fault it raised is still resolving: the
// fault's callback must find no QP and do nothing, not run on the freed
// engine. Nothing completes on the destroyed QP's CQ.
TEST(EdgeCases, DestroyingRequesterDuringOdpSourceFaultIsSafe)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto cqp = cluster.connectRc(client, ccq, server, scq).first;

    const auto remote = server.alloc(4096);
    const auto local = client.alloc(4096);
    auto& smr = server.registerMemory(remote, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(local, 4096,
                                      verbs::AccessFlags::odp());
    cqp.postWrite(local, cmr.lkey(), remote, smr.rkey(), 64, 1);
    ASSERT_GT(client.driver().stats().faultsRaised, 0u);
    client.rnic().destroyQp(cqp.qpn());

    cluster.drain(Time::sec(10));
    EXPECT_EQ(ccq.totalCompletions(), 0u);
    EXPECT_EQ(server.rnic().stats().packetsReceived, 0u);
}

TEST(EdgeCases, DestroyingResponderDuringOdpTargetFaultIsSafe)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);

    const auto remote = server.alloc(4096);
    const auto local = client.alloc(4096);
    auto& smr = server.registerMemory(remote, 4096,
                                      verbs::AccessFlags::odp());
    auto& cmr = client.registerMemory(local, 4096,
                                      verbs::AccessFlags::pinned());
    cqp.postRead(local, cmr.lkey(), remote, smr.rkey(), 64, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return server.driver().stats().faultsRaised > 0; },
        Time::sec(1)));
    server.rnic().destroyQp(sqp.qpn());

    // The client retries into the destroyed QP until its budget runs out.
    cluster.drain(Time::sec(100));
    EXPECT_EQ(scq.totalCompletions(), 0u);
    const auto wcs = ccq.poll();
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::RetryExcErr);
    EXPECT_GT(server.rnic().stats().packetsToUnknownQp, 0u);
}

namespace {

struct VerbCase
{
    const char* name;
    verbs::Transport transport;
    verbs::WrOpcode op;
    std::uint32_t length;
    verbs::WcStatus status;
};

void
PrintTo(const VerbCase& c, std::ostream* os)
{
    *os << c.name;
}

class VerbOutsideTransport : public ::testing::TestWithParam<VerbCase>
{};

} // namespace

// A verb the QP's transport does not carry, or a UD message larger than
// one MTU, fails at post with LOC_QP_OP_ERR / LOC_LEN_ERR and moves the
// QP to Error. Nothing reaches the wire and the remote buffer keeps its
// bytes: a UC READ must not go out as a WRITE of the local bytes.
TEST_P(VerbOutsideTransport, FailsAtPost)
{
    const VerbCase& c = GetParam();
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    verbs::QpConfig config;
    config.transport = c.transport;
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq, config);

    const std::uint32_t mtu = rnic::pathMtu;
    const auto remote = server.alloc(2 * mtu);
    const auto local = client.alloc(2 * mtu);
    const std::vector<std::uint8_t> before(64, 0x11);
    server.memory().write(remote, before);
    client.memory().write(local, std::vector<std::uint8_t>(64, 0x5a));
    auto& smr = server.registerMemory(remote, 2 * mtu,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(local, 2 * mtu,
                                      verbs::AccessFlags::pinned());
    sqp.postRecv(remote, smr.lkey(), 2 * mtu, 50);
    switch (c.op) {
      case verbs::WrOpcode::Read:
        cqp.postRead(local, cmr.lkey(), remote, smr.rkey(), c.length, 1);
        break;
      case verbs::WrOpcode::Write:
        cqp.postWrite(local, cmr.lkey(), remote, smr.rkey(), c.length, 1);
        break;
      case verbs::WrOpcode::FetchAdd:
        cqp.postFetchAdd(local, cmr.lkey(), remote, smr.rkey(), 1, 1);
        break;
      default:
        cqp.postSendUd({server.lid(), sqp.qpn()}, local, cmr.lkey(),
                       c.length, 1);
        break;
    }

    const auto wcs = ccq.poll();
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].wrId, 1u);
    EXPECT_EQ(wcs[0].opcode, c.op);
    EXPECT_EQ(wcs[0].status, c.status);
    EXPECT_EQ(cqp.context().state, rnic::QpState::Error);
    cluster.drain(Time::sec(1));
    EXPECT_EQ(server.rnic().stats().packetsReceived, 0u);
    EXPECT_EQ(server.memory().read(remote, 64), before);
    EXPECT_EQ(scq.totalCompletions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EdgeCases, VerbOutsideTransport,
    ::testing::Values(
        VerbCase{"UcRead", verbs::Transport::Uc, verbs::WrOpcode::Read, 64,
                 verbs::WcStatus::LocQpOpErr},
        VerbCase{"UcFetchAdd", verbs::Transport::Uc,
                 verbs::WrOpcode::FetchAdd, 8, verbs::WcStatus::LocQpOpErr},
        VerbCase{"UdWrite", verbs::Transport::Ud, verbs::WrOpcode::Write, 64,
                 verbs::WcStatus::LocQpOpErr},
        VerbCase{"UdRead", verbs::Transport::Ud, verbs::WrOpcode::Read, 64,
                 verbs::WcStatus::LocQpOpErr},
        VerbCase{"UdSendOverOneMtu", verbs::Transport::Ud,
                 verbs::WrOpcode::Send, 4096 + 1,
                 verbs::WcStatus::LocLenErr}),
    [](const ::testing::TestParamInfo<VerbCase>& info) {
        return std::string(info.param.name);
    });

// A WR posted before the QP is connected fails at post with
// LOC_QP_OP_ERR and moves the QP to Error; nothing reaches the wire.
TEST(EdgeCases, PostBeforeConnectFailsWithLocalQpOperationError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 5);
    Node& node = cluster.node(0);
    auto& cq = node.createCq();
    auto qp = node.createQp(cq);
    const auto buf = node.alloc(4096);
    auto& mr = node.registerMemory(buf, 4096,
                                   verbs::AccessFlags::pinned());
    qp.postWrite(buf, mr.lkey(), buf, mr.rkey(), 64, 1);
    const auto wcs = cq.poll();
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::LocQpOpErr);
    EXPECT_EQ(qp.context().state, rnic::QpState::Error);
    cluster.drain(Time::sec(10));
    EXPECT_EQ(cluster.fabric().totalSent(), 0u);
}

// A RECV whose lkey does not cover its buffer fails at post with
// LOC_PROT_ERR and moves the QP to Error, as a bad send-side lkey does.
// A SEND arriving afterwards finds an Error responder and lands nowhere,
// never through the missing region.
TEST(EdgeCases, RecvWithBadLocalKeyFailsWithLocalProtectionError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();

    const auto src = client.alloc(4096);
    const auto dst = server.alloc(4096);
    auto& cmr = client.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& smr = server.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    const struct
    {
        std::uint32_t lkey;
        std::uint32_t length;
    } cases[] = {{999, 64}, {smr.lkey(), 4096 + 64}};
    std::uint64_t wr_id = 0;
    for (const auto& c : cases) {
        auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
        ++wr_id;
        sqp.postRecv(dst, c.lkey, c.length, wr_id);
        const auto failed = scq.poll();
        ASSERT_EQ(failed.size(), 1u) << wr_id;
        EXPECT_EQ(failed[0].wrId, wr_id);
        EXPECT_EQ(failed[0].opcode, verbs::WrOpcode::Recv);
        EXPECT_EQ(failed[0].status, verbs::WcStatus::LocProtErr);
        EXPECT_EQ(sqp.context().state, rnic::QpState::Error);

        cqp.postSend(src, cmr.lkey(), 64, 100 + wr_id);
        ASSERT_TRUE(cluster.runUntil(
            [&] { return ccq.totalCompletions() == wr_id; },
            cluster.now() + Time::sec(100)));
        EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::RetryExcErr);
        EXPECT_EQ(scq.totalCompletions(), wr_id);
    }
}

// A QP entering Error flushes its posted RECVs with WR_FLUSH_ERR, as it
// flushes its send queue; none stays queued.
TEST(EdgeCases, ErrorFlushesPostedRecvs)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto cqp = cluster.connectRc(client, ccq, server, scq).first;

    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    cqp.postRecv(dst, cmr.lkey(), 64, 77);
    cqp.postRead(dst, 999, src, smr.rkey(), 64, 1);

    const auto wcs = ccq.poll();
    ASSERT_EQ(wcs.size(), 2u);
    EXPECT_EQ(wcs[0].wrId, 77u);
    EXPECT_EQ(wcs[0].opcode, verbs::WrOpcode::Recv);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::WrFlushErr);
    EXPECT_EQ(wcs[1].wrId, 1u);
    EXPECT_EQ(wcs[1].status, verbs::WcStatus::LocProtErr);
    EXPECT_EQ(cqp.context().state, rnic::QpState::Error);
    EXPECT_EQ(cqp.context().recvQueue.size(), 0u);
}

// A RECV posted to a QP already in Error completes with WR_FLUSH_ERR at
// once, as a send posted there does; it never waits in the RECV queue.
TEST(EdgeCases, RecvPostedInErrorFlushes)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto cqp = cluster.connectRc(client, ccq, server, scq).first;

    const auto src = server.alloc(4096);
    const auto dst = client.alloc(4096);
    auto& smr = server.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& cmr = client.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    cqp.postRead(dst, 999, src, smr.rkey(), 64, 1);
    ASSERT_EQ(ccq.poll().size(), 1u);
    ASSERT_EQ(cqp.context().state, rnic::QpState::Error);

    cqp.postRecv(dst, cmr.lkey(), 64, 77);
    cluster.advance(Time::sec(1));
    const auto wcs = ccq.poll();
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].wrId, 77u);
    EXPECT_EQ(wcs[0].opcode, verbs::WrOpcode::Recv);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::WrFlushErr);
    EXPECT_EQ(cqp.context().recvQueue.size(), 0u);
}

// A SEND whose RECV region was deregistered after the post is refused:
// the responder NAKs it, that RECV completes with LOC_PROT_ERR, the RECVs
// behind it flush and the requester sees REM_ACCESS_ERR. The buffer keeps
// its bytes.
TEST(EdgeCases, SendIntoDeregisteredRecvMrFailsWithLocalProtectionError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);

    const auto src = client.alloc(4096);
    const auto dst = server.alloc(4096);
    const std::vector<std::uint8_t> before(64, 0x11);
    client.memory().write(src, std::vector<std::uint8_t>(64, 0x77));
    server.memory().write(dst, before);
    auto& cmr = client.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& smr = server.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    sqp.postRecv(dst, smr.lkey(), 64, 77);
    sqp.postRecv(dst, smr.lkey(), 64, 78);
    server.deregisterMemory(smr);
    cqp.postSend(src, cmr.lkey(), 64, 1);

    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() == 1; }, Time::sec(1)));
    EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::RemAccessErr);
    const auto wcs = scq.poll();
    ASSERT_EQ(wcs.size(), 2u);
    EXPECT_EQ(wcs[0].wrId, 77u);
    EXPECT_EQ(wcs[0].opcode, verbs::WrOpcode::Recv);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::LocProtErr);
    EXPECT_EQ(wcs[1].wrId, 78u);
    EXPECT_EQ(wcs[1].status, verbs::WcStatus::WrFlushErr);
    EXPECT_EQ(sqp.context().state, rnic::QpState::Error);
    EXPECT_EQ(server.memory().read(dst, 64), before);
}

// A datagram whose RECV region was deregistered after the post lands
// nowhere: the RECV completes with LOC_PROT_ERR, the QP moves to Error
// and the buffer keeps its bytes. The oracle books the datagram as a
// counted drop.
TEST(EdgeCases, DatagramIntoDeregisteredRecvMrFailsWithLocalProtectionError)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 61);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    verbs::QpConfig config;
    config.transport = verbs::Transport::Ud;
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq, config);
    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(server.rnic(), sqp.context());

    const auto src = client.alloc(4096);
    const auto dst = server.alloc(4096);
    const std::vector<std::uint8_t> before(32, 0x11);
    client.memory().write(src, std::vector<std::uint8_t>(32, 0x77));
    server.memory().write(dst, before);
    auto& cmr = client.registerMemory(src, 4096,
                                      verbs::AccessFlags::pinned());
    auto& smr = server.registerMemory(dst, 4096,
                                      verbs::AccessFlags::pinned());
    sqp.postRecv(dst, smr.lkey(), 64, 77);
    server.deregisterMemory(smr);
    cqp.postSendUd({server.lid(), sqp.qpn()}, src, cmr.lkey(), 32, 1);
    cluster.drain(Time::sec(1));

    const auto wcs = scq.poll();
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].wrId, 77u);
    EXPECT_EQ(wcs[0].status, verbs::WcStatus::LocProtErr);
    EXPECT_EQ(sqp.context().state, rnic::QpState::Error);
    EXPECT_EQ(server.memory().read(dst, 32), before);
    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(EdgeCases, EventQueueCompactionUnderMassCancel)
{
    EventQueue q;
    // Far-future timers cancelled in bulk trigger heap compaction.
    std::vector<EventHandle> handles;
    int fired = 0;
    for (int i = 0; i < 5000; ++i)
        handles.push_back(
            q.schedule(Time::sec(100 + i), [&] { ++fired; }));
    int kept = 0;
    q.schedule(Time::us(1), [&] { ++kept; });
    for (auto& h : handles)
        EXPECT_TRUE(q.cancel(h));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(kept, 1);
    EXPECT_EQ(q.now(), Time::us(1));  // never visited the cancelled tail
}

TEST(EdgeCases, CancelInterleavedWithExecution)
{
    EventQueue q;
    int fired = 0;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 2000; ++i)
        handles.push_back(
            q.schedule(Time::us(i + 1), [&] { ++fired; }));
    // Cancel every other event, some already past once we start running.
    for (std::size_t i = 0; i < handles.size(); i += 2)
        q.cancel(handles[i]);
    q.run();
    EXPECT_EQ(fired, 1000);
}

TEST(EdgeCases, TimeExtremes)
{
    EXPECT_GT(Time::max(), Time::sec(1e9));
    EXPECT_EQ(Time::fromNs(-5).toNs(), -5);
    EXPECT_LT(Time::fromNs(-5), Time());
    EXPECT_EQ((Time::us(1) * 0.0).toNs(), 0);
}

TEST(EdgeCases, RngExponentialMean)
{
    Rng rng(3);
    double sum = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(Time::us(100)).toUs();
    EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(EdgeCases, ZeroCackDisablesTimeoutEntirely)
{
    // C_ack = 0 disables the timer (IBA): a lost packet is never
    // recovered and never aborts either.
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 5);
    Node& node = cluster.node(0);
    auto& cq = node.createCq();
    verbs::QpConfig config;
    config.cack = 0;
    auto qp = node.createQp(cq, config);
    qp.connect(/*dst_lid=*/404, 1);

    const auto buf = node.alloc(4096);
    auto& mr = node.registerMemory(buf, 4096,
                                   verbs::AccessFlags::pinned());
    qp.postRead(buf, mr.lkey(), 0x40000000, 1, 64, 1);
    cluster.drain(Time::sec(100));
    EXPECT_EQ(cq.totalCompletions(), 0u);
    EXPECT_NE(qp.context().state, rnic::QpState::Error);
    EXPECT_EQ(qp.stats().timeouts, 0u);
}

TEST(EdgeCases, SameNodeLoopbackQp)
{
    // A QP pair within one node: loopback through the fabric.
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 5);
    Node& node = cluster.node(0);
    auto& cq = node.createCq();
    auto qa = node.createQp(cq, {});
    auto qb = node.createQp(cq, {});
    qa.connect(node.lid(), qb.qpn());
    qb.connect(node.lid(), qa.qpn());

    const auto src = node.alloc(4096);
    const auto dst = node.alloc(4096);
    node.memory().write(src, std::vector<std::uint8_t>(32, 0x99));
    auto& mr = node.registerMemory(src, 4096,
                                   verbs::AccessFlags::pinned());
    auto& mr2 = node.registerMemory(dst, 4096,
                                    verbs::AccessFlags::pinned());
    qa.postRead(dst, mr2.lkey(), src, mr.rkey(), 32, 1);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return cq.totalCompletions() == 1; }, Time::sec(1)));
    EXPECT_EQ(node.memory().read(dst, 32),
              std::vector<std::uint8_t>(32, 0x99));
}

TEST(EdgeCases, HistogramSingleBucket)
{
    Histogram h(0.0, 1.0, 1);
    h.add(0.5);
    h.add(2.0);
    EXPECT_EQ(h.count(0), 2u);
}
