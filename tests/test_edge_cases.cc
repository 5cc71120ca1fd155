/**
 * @file
 * Edge-case coverage: deregistration, event-queue compaction under mass
 * cancellation, time extremes, RNG tails, and error paths not exercised
 * elsewhere.
 */

#include <gtest/gtest.h>

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
    EXPECT_FALSE(qp.inError());
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
