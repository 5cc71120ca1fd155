/**
 * @file
 * Chaos engine + invariant oracle tests.
 *
 * Strategy: run a randomized RC workload (READ/WRITE/SEND mix over ODP
 * regions) under each fault class and require two things at once — the
 * workload completes, and the invariant monitor stays clean. Then flip
 * the setup around: a deliberately broken injector (replaying stale
 * packets without chaos provenance) and a CQ starved of capacity must
 * both be *caught* by the oracle, proving the clean results mean
 * something.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hh"
#include "chaos/fault_injector.hh"
#include "chaos/invariant_monitor.hh"
#include "chaos/port_events.hh"
#include "cluster/cluster.hh"
#include "cluster/topology.hh"
#include "swrel/soft_reliable.hh"

using namespace ibsim;

namespace {

/**
 * A randomized RC workload instrumented with the chaos engine and the
 * invariant monitor. Construction wires everything; run() posts a mixed
 * op stream and waits for it to drain.
 */
struct ChaosWorkload
{
    explicit ChaosWorkload(const chaos::ChaosConfig& cfg,
                           std::uint64_t cluster_seed = 7,
                           std::size_t op_count = 60)
        : cluster(rnic::DeviceProfile::connectX4(), 2, cluster_seed),
          engine(cluster.events(), cfg), monitor(cluster.fabric()),
          ops(op_count)
    {
        acq = &a.createCq();
        bcq = &b.createCq();
        auto [qa, qb] = cluster.connectRc(a, *acq, b, *bcq);
        aqp = qa;
        bqp = qb;

        src = a.alloc(bufBytes);
        dst = b.alloc(bufBytes);
        a.touch(src, bufBytes);
        b.touch(dst, bufBytes);
        amr = &a.registerMemory(src, bufBytes, verbs::AccessFlags::odp());
        bmr = &b.registerMemory(dst, bufBytes, verbs::AccessFlags::odp());

        engine.install(cluster.fabric());
        monitor.watch(a.rnic(), aqp.context());
        monitor.watch(b.rnic(), bqp.context());

        // Enough RECVs for every op to be a SEND.
        for (std::size_t i = 0; i < ops; ++i)
            bqp.postRecv(dst + recvBase + i * slotBytes, bmr->lkey(),
                         slotBytes, 1000 + i);
    }

    /** Post the op mix and wait for the requester to drain. */
    bool
    run(bool wait_on_totals = true)
    {
        Rng& rng = cluster.rng();
        for (std::size_t i = 0; i < ops; ++i) {
            const std::uint64_t off = (i % 64) * slotBytes;
            const auto len = static_cast<std::uint32_t>(
                rng.uniformInt(16, 256));
            switch (rng.uniformInt(0, 2)) {
              case 0:
                aqp.postWrite(src + off, amr->lkey(), dst + off,
                              bmr->rkey(), len, i + 1);
                break;
              case 1:
                aqp.postRead(src + readBase + off, amr->lkey(),
                             dst + readBase + off, bmr->rkey(), len,
                             i + 1);
                break;
              default:
                aqp.postSend(src + sendBase + off, amr->lkey(), len,
                             i + 1);
                break;
            }
            cluster.advance(rng.uniformTime(Time::us(1), Time::us(20)));
        }
        const bool ok = cluster.runUntil(
            [&] {
                if (aqp.outstanding() != 0)
                    return false;
                return !wait_on_totals ||
                       acq->totalCompletions() >= ops;
            },
            cluster.now() + Time::sec(600));
        monitor.finalCheck();
        return ok;
    }

    static constexpr std::uint64_t bufBytes = 64 * 1024;
    static constexpr std::uint64_t slotBytes = 256;
    static constexpr std::uint64_t readBase = 16 * 1024;
    static constexpr std::uint64_t sendBase = 32 * 1024;
    static constexpr std::uint64_t recvBase = 32 * 1024;

    Cluster cluster;
    chaos::ChaosEngine engine;
    chaos::InvariantMonitor monitor;
    std::size_t ops;
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    verbs::CompletionQueue* acq = nullptr;
    verbs::CompletionQueue* bcq = nullptr;
    verbs::QueuePair aqp;
    verbs::QueuePair bqp;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    verbs::MemoryRegion* amr = nullptr;
    verbs::MemoryRegion* bmr = nullptr;
};

chaos::ChaosConfig
everythingConfig(std::uint64_t seed)
{
    chaos::ChaosConfig cfg;
    cfg.seed = seed;
    cfg.dropRate = 0.02;
    cfg.dupRate = 0.05;
    cfg.reorderRate = 0.05;
    cfg.corruptRate = 0.03;
    cfg.delayRate = 0.2;
    cfg.forgedNakRate = 0.01;
    cfg.flapPeriod = Time::ms(5);
    cfg.flapDown = Time::us(200);
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Determinism: the whole point of seeding every chaos decision through
// exp::SeedStream is bit-identical replay.
// ---------------------------------------------------------------------

TEST(ChaosDeterminism, SameSeedsSameTraceAndReport)
{
    auto once = [] {
        ChaosWorkload w(everythingConfig(42), /*cluster_seed=*/7);
        w.run();
        return std::make_tuple(w.monitor.traceHash(),
                               w.monitor.packetsObserved(),
                               w.monitor.violationCount(),
                               w.monitor.report(),
                               w.engine.injector().stats());
    };
    const auto first = once();
    const auto second = once();
    EXPECT_EQ(std::get<0>(first), std::get<0>(second));
    EXPECT_EQ(std::get<1>(first), std::get<1>(second));
    EXPECT_EQ(std::get<2>(first), std::get<2>(second));
    EXPECT_EQ(std::get<3>(first), std::get<3>(second));
    const auto& s1 = std::get<4>(first);
    const auto& s2 = std::get<4>(second);
    EXPECT_EQ(s1.packetsSeen, s2.packetsSeen);
    EXPECT_EQ(s1.delayed, s2.delayed);
    EXPECT_EQ(s1.reordered, s2.reordered);
    EXPECT_EQ(s1.duplicated, s2.duplicated);
    EXPECT_EQ(s1.corrupted, s2.corrupted);
    EXPECT_EQ(s1.dropped, s2.dropped);
    EXPECT_EQ(s1.naksForged, s2.naksForged);
}

TEST(ChaosDeterminism, DifferentChaosSeedDifferentSchedule)
{
    auto hash = [](std::uint64_t chaos_seed) {
        ChaosWorkload w(everythingConfig(chaos_seed), /*cluster_seed=*/7);
        w.run();
        return w.monitor.traceHash();
    };
    EXPECT_NE(hash(1), hash(2));
}

// ---------------------------------------------------------------------
// Each fault class in isolation: the workload completes and the oracle
// stays clean (the transport absorbed the fault correctly).
// ---------------------------------------------------------------------

TEST(ChaosFaults, DelayJitterIsAbsorbed)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 3;
    cfg.delayRate = 1.0;
    cfg.delayMin = Time::us(1);
    cfg.delayMax = Time::us(200);
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().delayed, 0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, ReorderingRecoversViaGoBackN)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 4;
    cfg.reorderRate = 0.3;
    cfg.reorderMaxHold = Time::us(300);
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().reordered, 0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, DuplicatesAreIdempotent)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 5;
    cfg.dupRate = 0.5;
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().duplicated, 0u);
    // A duplicate RC delivery consuming a second RECV or completing a WR
    // twice would trip recv-/send-exactly-once here.
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, DropsRecoverViaTimeout)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 6;
    cfg.dropRate = 0.05;
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().dropped, 0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, CorruptionFailsIcrcAndActsAsLoss)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 7;
    cfg.corruptRate = 0.1;
    cfg.corruptEvadeCrc = 0.0;
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().corrupted, 0u);
    EXPECT_GT(w.a.rnic().stats().crcDrops + w.b.rnic().stats().crcDrops,
              0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, CrcEvadingCorruptionNeverCrashes)
{
    // Mangled packets reach the protocol engines. The transport may
    // legitimately error the QP (e.g. a corrupted rkey draws a remote
    // access NAK), but it must degrade gracefully: no assert, no wild
    // responder arithmetic, every posted WR still completes (possibly
    // flushed).
    chaos::ChaosConfig cfg;
    cfg.seed = 8;
    cfg.corruptRate = 0.15;
    cfg.corruptEvadeCrc = 1.0;
    ChaosWorkload w(cfg);
    const bool completed = w.run();
    EXPECT_TRUE(completed || w.aqp.inError());
    EXPECT_GT(w.engine.injector().stats().corrupted, 0u);
}

TEST(ChaosFaults, LinkFlapWindowsAreSurvived)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 9;
    cfg.flapPeriod = Time::ms(2);
    cfg.flapDown = Time::us(100);
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().flapDropped, 0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, ForgedNaksOnlyCauseBenignReplays)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 10;
    cfg.forgedNakRate = 0.05;
    ChaosWorkload w(cfg);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.injector().stats().naksForged, 0u);
    // A forged PSN-sequence NAK provokes a spurious go-back-N replay;
    // the replay must stay inside the posted window (retrans-window) and
    // must not double-complete anything.
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, OdpLatencySpikesAreAbsorbed)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 11;
    ChaosWorkload w(cfg);
    w.engine.addOdpLatencySpikes(w.a.driver(), 0.5, 8.0);
    w.engine.addOdpLatencySpikes(w.b.driver(), 0.5, 8.0);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.stats().odpSpikes, 0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, InvalidationStormIsSurvived)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 12;
    ChaosWorkload w(cfg);
    w.engine.startInvalidationStorm(w.b.driver(), w.bmr->table(), w.dst,
                                    ChaosWorkload::bufBytes,
                                    Time::us(100),
                                    /*pages_per_burst=*/2,
                                    /*bursts=*/50);
    EXPECT_TRUE(w.run());
    EXPECT_GT(w.engine.stats().pagesInvalidated, 0u);
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
}

TEST(ChaosFaults, InvalidationStormRunsOnTheEngineIsland)
{
    // In island mode cluster.events() is island 0's queue: a storm on a
    // node-0 driver fires every burst there, and a storm on another
    // island's driver is refused — the engine's RNG and stats are not
    // island-owned, so it would race at jobs > 1.
    ClusterOptions options;
    options.sharded = true;
    options.jobs = 2;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 3,
                    net::LinkConfig{}, options);
    chaos::ChaosEngine engine(cluster.events(), chaos::ChaosConfig{});
    constexpr std::uint64_t bytes = 64 * 1024;
    std::vector<verbs::MemoryRegion*> mrs;
    std::vector<std::uint64_t> bufs;
    for (std::size_t i = 0; i < 2; ++i) {
        Node& node = cluster.node(i);
        bufs.push_back(node.alloc(bytes));
        node.touch(bufs.back(), bytes);
        mrs.push_back(&node.registerMemory(bufs.back(), bytes,
                                           verbs::AccessFlags::odp()));
    }

    engine.startInvalidationStorm(cluster.node(0).driver(), mrs[0]->table(),
                                  bufs[0], bytes, Time::us(100),
                                  /*pages_per_burst=*/2, /*bursts=*/8);
    EXPECT_THROW(engine.startInvalidationStorm(
                     cluster.node(1).driver(), mrs[1]->table(), bufs[1],
                     bytes, Time::us(100), 2, 8),
                 std::logic_error);
    EXPECT_TRUE(cluster.drain());
    EXPECT_EQ(engine.stats().stormBursts, 8u);
}

// ---------------------------------------------------------------------
// Oracle sensitivity: a clean verdict is only meaningful if broken
// behaviour is actually flagged.
// ---------------------------------------------------------------------

namespace {

/**
 * A deliberately broken injector: every fifth request packet triggers a
 * replay of an older request WITHOUT chaos provenance flags — to the
 * oracle this is indistinguishable from the endpoint emitting the same
 * fresh PSN twice, which RC must never do.
 */
struct ReplayHook : net::FaultHook
{
    std::vector<net::Packet> history;
    std::size_t requests = 0;

    void
    processPacket(const net::Packet& pkt, Time,
                  std::vector<Delivery>& out) override
    {
        out.push_back({pkt, Time()});
        if (!chaos::isRequestOpcode(pkt.op) || pkt.retransmission)
            return;
        history.push_back(pkt);
        if (++requests % 5 == 0)
            out.push_back({history[history.size() / 2], Time::us(1)});
    }
};

} // namespace

TEST(ChaosOracle, BrokenInjectorIsCaught)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 13;
    ChaosWorkload w(cfg);
    ReplayHook replay;
    w.cluster.fabric().setFaultHook(&replay);  // displaces the engine
    w.run();
    EXPECT_GT(w.monitor.violationCount(), 0u);
    EXPECT_NE(w.monitor.report().find("fresh-once"), std::string::npos)
        << w.monitor.report();
}

TEST(ChaosOracle, CqOverflowShowsUpAsMissingCompletions)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 14;
    ChaosWorkload w(cfg);
    // Nobody polls acq in this harness, so a capacity of 4 loses every
    // completion beyond the first four.
    w.engine.applyCqPressure(*w.acq, 4);
    w.run(/*wait_on_totals=*/false);
    EXPECT_GT(w.acq->overflows(), 0u);
    EXPECT_GT(w.monitor.violationCount(), 0u);
    EXPECT_NE(w.monitor.report().find("send-completion-missing"),
              std::string::npos)
        << w.monitor.report();
}

namespace {

/** Two nodes and one RC pair over pinned buffers, no chaos engine. */
struct OraclePair
{
    OraclePair() : cluster(rnic::DeviceProfile::connectX4(), 2, 5)
    {
        acq = &a.createCq();
        bcq = &b.createCq();
        auto [qa, qb] = cluster.connectRc(a, *acq, b, *bcq);
        aqp = qa;
        bqp = qb;
        src = a.alloc(bytes);
        dst = b.alloc(bytes);
        amr = &a.registerMemory(src, bytes, verbs::AccessFlags::pinned());
        bmr = &b.registerMemory(dst, bytes, verbs::AccessFlags::pinned());
    }

    void
    postWrite(std::uint64_t wr_id)
    {
        aqp.postWrite(src, amr->lkey(), dst, bmr->rkey(), 64, wr_id);
    }

    /** Run until @p a_total / @p b_total completions reached each CQ. */
    bool
    runTo(std::uint64_t a_total, std::uint64_t b_total)
    {
        return cluster.runUntil(
            [&] {
                return acq->totalCompletions() >= a_total &&
                       bcq->totalCompletions() >= b_total;
            },
            cluster.now() + Time::sec(1));
    }

    static constexpr std::uint64_t bytes = 4096;

    Cluster cluster;
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    verbs::CompletionQueue* acq = nullptr;
    verbs::CompletionQueue* bcq = nullptr;
    verbs::QueuePair aqp;
    verbs::QueuePair bqp;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    verbs::MemoryRegion* amr = nullptr;
    verbs::MemoryRegion* bmr = nullptr;
};

/** wrIds of the exactly-once ledger tests: plain, and both extremes. */
const std::vector<std::uint64_t> ledgerWrIds = {
    42, 0, std::numeric_limits<std::uint64_t>::max()};

std::string
twiceDetail(std::uint64_t wr_id)
{
    return "wrId=" + std::to_string(wr_id) + " completed 2x but posted 1x";
}

} // namespace

TEST(ChaosOracle, ForgedSecondSendCompletionIsCaught)
{
    for (std::uint64_t wr : ledgerWrIds) {
        SCOPED_TRACE(wr);
        OraclePair p;
        chaos::InvariantMonitor monitor(p.cluster.fabric());
        monitor.watch(p.a.rnic(), p.aqp.context());
        monitor.watch(p.b.rnic(), p.bqp.context());
        p.postWrite(wr);
        ASSERT_TRUE(p.runTo(1, 0));
        const std::vector<verbs::WorkCompletion> wcs = p.acq->poll();
        ASSERT_EQ(wcs.size(), 1u);
        EXPECT_TRUE(monitor.clean()) << monitor.report();

        p.acq->push(wcs[0]);  // the forged second completion
        ASSERT_EQ(monitor.violationCount(), 1u) << monitor.report();
        EXPECT_EQ(monitor.violations()[0].invariant, "send-exactly-once");
        EXPECT_EQ(monitor.violations()[0].detail, twiceDetail(wr));
    }
}

TEST(ChaosOracle, ForgedSecondRecvCompletionIsCaught)
{
    for (std::uint64_t wr : ledgerWrIds) {
        SCOPED_TRACE(wr);
        OraclePair p;
        chaos::InvariantMonitor monitor(p.cluster.fabric());
        monitor.watch(p.a.rnic(), p.aqp.context());
        monitor.watch(p.b.rnic(), p.bqp.context());
        p.bqp.postRecv(p.dst, p.bmr->lkey(), 256, wr);
        p.aqp.postSend(p.src, p.amr->lkey(), 64, 1);
        ASSERT_TRUE(p.runTo(1, 1));
        const std::vector<verbs::WorkCompletion> wcs = p.bcq->poll();
        ASSERT_EQ(wcs.size(), 1u);
        ASSERT_EQ(wcs[0].opcode, verbs::WrOpcode::Recv);
        EXPECT_TRUE(monitor.clean()) << monitor.report();

        p.bcq->push(wcs[0]);
        ASSERT_EQ(monitor.violationCount(), 1u) << monitor.report();
        EXPECT_EQ(monitor.violations()[0].invariant, "recv-exactly-once");
        EXPECT_EQ(monitor.violations()[0].detail, twiceDetail(wr));
    }
}

TEST(ChaosOracle, ForgedAckBeyondPostedRangeIsCaught)
{
    // W4: every ACK names a PSN its requester posted. A raw ACK beyond
    // the requester's nextPsn, without chaos provenance, is judged at
    // the requester's ingress: inside send() on one island, at the
    // destination's channel drain across islands. Either way the
    // violation carries the ACK's egress time.
    for (const unsigned jobs : {0u, 1u, 2u}) {
        SCOPED_TRACE(jobs);
        ClusterOptions options;
        options.sharded = jobs > 0;
        options.jobs = jobs > 0 ? jobs : 1;
        Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 5,
                        net::LinkConfig{}, options);
        Node& a = cluster.node(0);
        Node& b = cluster.node(1);
        verbs::CompletionQueue& acq = a.createCq();
        auto [aqp, bqp] = cluster.connectRc(a, acq, b, b.createCq());
        const std::uint64_t src = a.alloc(4096);
        const std::uint64_t dst = b.alloc(4096);
        const std::uint32_t lkey =
            a.registerMemory(src, 4096, verbs::AccessFlags::pinned()).lkey();
        const std::uint32_t rkey =
            b.registerMemory(dst, 4096, verbs::AccessFlags::pinned()).rkey();

        chaos::InvariantMonitor monitor(cluster.fabric());
        monitor.watch(a.rnic(), aqp.context());
        monitor.watch(b.rnic(), bqp.context());

        // A normal WRITE and its ACK stay clean.
        aqp.postWrite(src, lkey, dst, rkey, 64, 1);
        ASSERT_TRUE(cluster.runUntil(
            [&] { return acq.totalCompletions() >= 1; },
            cluster.now() + Time::sec(1)));
        EXPECT_TRUE(monitor.clean()) << monitor.report();

        net::Packet ack;
        ack.op = net::Opcode::Ack;
        ack.psn = aqp.context().nextPsn + 3;
        ack.srcLid = b.lid();
        ack.srcQpn = bqp.qpn();
        ack.dstLid = a.lid();
        ack.dstQpn = aqp.qpn();
        net::Fabric& fabric = cluster.fabric();
        const Time sentAt =
            fabric.islandEvents(fabric.islandOf(b.lid())).now();
        fabric.send(ack);
        cluster.advance(Time::us(50));

        ASSERT_EQ(monitor.violationCount(), 1u) << monitor.report();
        const chaos::Violation& v = monitor.violations()[0];
        EXPECT_EQ(v.invariant, "ack-coherence");
        EXPECT_EQ(v.at.toNs(), sentAt.toNs());
        EXPECT_EQ(v.lid, a.lid());
        EXPECT_EQ(v.qpn, aqp.qpn());
    }
}

TEST(ChaosOracle, LateAttachJudgesOnlyPostAttachWrs)
{
    OraclePair p;
    for (std::uint64_t wr = 1; wr <= 8; ++wr)
        p.postWrite(wr);
    ASSERT_TRUE(p.runTo(3, 0));
    ASSERT_GT(p.aqp.outstanding(), 0u);  // attach with WRs in flight

    chaos::InvariantMonitor monitor(p.cluster.fabric());
    monitor.watchAll(p.cluster);
    for (std::uint64_t wr = 101; wr <= 104; ++wr)
        p.postWrite(wr);
    ASSERT_TRUE(p.runTo(12, 0));
    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();

    std::vector<verbs::WorkCompletion> wcs = p.acq->poll();
    ASSERT_EQ(wcs.size(), 12u);
    // A pre-attach WR was never seen posted: its forged twin is ignored.
    ASSERT_EQ(wcs[0].wrId, 1u);
    p.acq->push(wcs[0]);
    EXPECT_TRUE(monitor.clean()) << monitor.report();
    // A post-attach WR is judged.
    ASSERT_EQ(wcs[8].wrId, 101u);
    p.acq->push(wcs[8]);
    ASSERT_EQ(monitor.violationCount(), 1u) << monitor.report();
    EXPECT_EQ(monitor.violations()[0].invariant, "send-exactly-once");
    EXPECT_EQ(monitor.violations()[0].detail, twiceDetail(101));
}

TEST(ChaosOracle, FinalCheckOrderIsIndependentOfWatchOrder)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 9);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    const std::uint64_t src = a.alloc(4096);
    const std::uint64_t dst = b.alloc(4096);
    const std::uint32_t lkey =
        a.registerMemory(src, 4096, verbs::AccessFlags::pinned()).lkey();
    const std::uint32_t rkey =
        b.registerMemory(dst, 4096, verbs::AccessFlags::pinned()).rkey();
    std::vector<verbs::QueuePair> clients, servers;
    for (int i = 0; i < 2; ++i) {
        verbs::CompletionQueue& acq = a.createCq();
        acq.setCapacity(1);  // nobody polls: one completion lands
        auto [qa, qb] = cluster.connectRc(a, acq, b, b.createCq());
        clients.push_back(qa);
        servers.push_back(qb);
    }

    chaos::InvariantMonitor forward(cluster.fabric());
    chaos::InvariantMonitor reverse(cluster.fabric());
    for (int i = 0; i < 2; ++i) {
        forward.watch(a.rnic(), clients[i].context());
        forward.watch(b.rnic(), servers[i].context());
        reverse.watch(b.rnic(), servers[1 - i].context());
        reverse.watch(a.rnic(), clients[1 - i].context());
    }
    for (verbs::QueuePair& qp : clients)
        for (std::uint64_t wr = 1; wr <= 3; ++wr)
            qp.postWrite(src, lkey, dst, rkey, 64, wr);
    ASSERT_TRUE(cluster.runUntil(
        [&] {
            return clients[0].outstanding() == 0 &&
                   clients[1].outstanding() == 0;
        },
        cluster.now() + Time::sec(1)));
    forward.finalCheck();
    reverse.finalCheck();

    ASSERT_EQ(forward.violationCount(), 2u) << forward.report();
    for (const chaos::Violation& v : forward.violations())
        EXPECT_EQ(v.invariant, "send-completion-missing");
    EXPECT_LT(forward.violations()[0].qpn, forward.violations()[1].qpn);
    EXPECT_EQ(reverse.report(), forward.report());
}

TEST(ChaosOracle, DestroyedMonitorLeavesNoTapsBehind)
{
    // Every monitor tap captures the monitor: after it is destroyed,
    // posts, egress and completions must not call into it (the
    // sanitizer job turns a leftover tap into a use-after-free).
    OraclePair p;
    auto monitor =
        std::make_unique<chaos::InvariantMonitor>(p.cluster.fabric());
    monitor->watch(p.a.rnic(), p.aqp.context());
    monitor->watch(p.b.rnic(), p.bqp.context());
    for (std::uint64_t wr = 1; wr <= 4; ++wr)
        p.postWrite(wr);
    ASSERT_TRUE(p.runTo(2, 0));
    monitor.reset();  // mid-run: WRs still in flight

    p.bqp.postRecv(p.dst, p.bmr->lkey(), 256, 7);
    p.aqp.postSend(p.src, p.amr->lkey(), 64, 5);
    p.postWrite(6);
    EXPECT_TRUE(p.runTo(6, 1));
}

// ---------------------------------------------------------------------
// PsnRunSet: the W1 fresh-once ledger.
// ---------------------------------------------------------------------

TEST(PsnRunSet, OutOfOrderInsertsMergeIntoRuns)
{
    chaos::PsnRunSet set;
    for (std::uint32_t psn : {10u, 12u, 14u})
        EXPECT_TRUE(set.insert(psn));
    EXPECT_EQ(set.runCount(), 3u);
    EXPECT_TRUE(set.insert(11));  // joins 10 and 12
    EXPECT_EQ(set.runCount(), 2u);
    EXPECT_TRUE(set.insert(13));  // joins [10, 12] and 14
    EXPECT_EQ(set.runCount(), 1u);
    EXPECT_TRUE(set.insert(9));   // extends downwards
    EXPECT_TRUE(set.insert(15));  // extends upwards
    EXPECT_EQ(set.runCount(), 1u);
    for (std::uint32_t psn = 9; psn <= 15; ++psn)
        EXPECT_TRUE(set.contains(psn)) << psn;
    EXPECT_FALSE(set.contains(8));
    EXPECT_FALSE(set.contains(16));
}

TEST(PsnRunSet, DuplicateInsideAnInteriorRunIsRefused)
{
    chaos::PsnRunSet set;
    for (std::uint32_t psn = 0; psn < 5; ++psn)
        set.insert(psn);
    for (std::uint32_t psn = 100; psn < 105; ++psn)
        set.insert(psn);
    for (std::uint32_t psn = 200; psn < 205; ++psn)
        set.insert(psn);
    ASSERT_EQ(set.runCount(), 3u);
    EXPECT_FALSE(set.insert(102));  // middle of the middle run
    EXPECT_FALSE(set.insert(100));  // its edges
    EXPECT_FALSE(set.insert(104));
    EXPECT_EQ(set.runCount(), 3u);
    EXPECT_TRUE(set.insert(105));
    EXPECT_FALSE(set.insert(105));
}

TEST(PsnRunSet, WrapFromTopOfRingToZero)
{
    chaos::PsnRunSet set;
    for (std::uint32_t psn = 0xfffffd; psn <= 0xffffff; ++psn)
        EXPECT_TRUE(set.insert(psn));
    EXPECT_TRUE(set.insert(0));  // 0xffffff + 1 wraps to a new run
    EXPECT_TRUE(set.insert(1));
    EXPECT_EQ(set.runCount(), 2u);
    EXPECT_FALSE(set.insert(0xffffff));
    EXPECT_FALSE(set.insert(0));
    EXPECT_FALSE(set.contains(2));
    EXPECT_FALSE(set.contains(0xfffffc));
}

TEST(PsnRunSet, ClearForgetsEveryPsn)
{
    // A reset epoch restarts the PSN stream at 0: the monitor clears the
    // set, after which the same PSNs are fresh again.
    chaos::PsnRunSet set;
    for (std::uint32_t psn : {0u, 1u, 2u, 50u, 0xffffffu})
        set.insert(psn);
    set.clear();
    EXPECT_EQ(set.runCount(), 0u);
    EXPECT_FALSE(set.contains(1));
    for (std::uint32_t psn : {0u, 1u, 2u, 50u, 0xffffffu})
        EXPECT_TRUE(set.insert(psn)) << psn;
    EXPECT_EQ(set.runCount(), 3u);
}

TEST(PsnRunSet, MatchesStdSetOnRandomStreams)
{
    Rng rng(17);
    for (int round = 0; round < 20; ++round) {
        chaos::PsnRunSet set;
        std::set<std::uint32_t> model;
        // Bursts of in-order PSNs from random starts near the wrap and
        // near zero, so runs meet, merge and straddle the ring's end.
        for (int burst = 0; burst < 40; ++burst) {
            const bool nearTop = rng.uniformInt(0, 1) == 1;
            std::uint32_t psn = static_cast<std::uint32_t>(
                nearTop ? rng.uniformInt(0xffff00, 0xffffff)
                        : rng.uniformInt(0, 255));
            const int len = static_cast<int>(rng.uniformInt(1, 12));
            for (int i = 0; i < len; ++i, psn = (psn + 1) & 0xffffff) {
                ASSERT_EQ(set.insert(psn), model.insert(psn).second)
                    << round << " " << psn;
            }
        }
        for (std::uint32_t psn = 0; psn < 300; ++psn)
            ASSERT_EQ(set.contains(psn), model.count(psn) == 1) << psn;
        for (std::uint32_t psn = 0xfffe00; psn <= 0xffffff; ++psn)
            ASSERT_EQ(set.contains(psn), model.count(psn) == 1) << psn;
    }
}

// ---------------------------------------------------------------------
// Stage unit checks.
// ---------------------------------------------------------------------

TEST(ChaosStages, LinkFlapWindowArithmetic)
{
    chaos::LinkFlapStage flap({}, Time::ms(10), Time::ms(2),
                              /*phase=*/Time::ms(1));
    EXPECT_TRUE(flap.down(Time::ms(1)));       // cycle start
    EXPECT_TRUE(flap.down(Time::ms(2.5)));     // inside the window
    EXPECT_FALSE(flap.down(Time::ms(3.5)));    // past it
    EXPECT_TRUE(flap.down(Time::ms(11.5)));    // next cycle
    EXPECT_FALSE(flap.down(Time::us(500)));    // before the first phase
}

TEST(ChaosStages, PacketFilterTargeting)
{
    chaos::PacketFilter filter;
    filter.srcQpn = 100;
    filter.requestsOnly = true;

    net::Packet req;
    req.op = net::Opcode::WriteRequest;
    req.srcQpn = 100;
    EXPECT_TRUE(filter.matches(req));

    net::Packet otherQp = req;
    otherQp.srcQpn = 101;
    EXPECT_FALSE(filter.matches(otherQp));

    net::Packet ack = req;
    ack.op = net::Opcode::Ack;
    EXPECT_FALSE(filter.matches(ack));
}

// ---------------------------------------------------------------------
// Satellite: swrel failure visibility under total loss, cross-checked
// by the oracle's swrel accounting.
// ---------------------------------------------------------------------

TEST(ChaosSwrel, RetryExhaustionIsVisibleAndConsistent)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 19);
    chaos::InvariantMonitor monitor(cluster.fabric());
    swrel::SoftChannelConfig config;
    config.retryTimeout = Time::us(200);
    config.maxRetries = 2;
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1), config);
    chaos::FaultInjector blackhole(1);
    blackhole.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 1.0));
    cluster.fabric().setFaultHook(&blackhole);

    std::vector<std::uint64_t> failures;
    channel.setFailureCallback(
        [&](std::uint64_t seq) { failures.push_back(seq); });

    const std::uint64_t seq = channel.send({42});
    cluster.drain(Time::sec(1));

    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0], seq);
    EXPECT_TRUE(channel.failed(seq));
    EXPECT_FALSE(channel.acked(seq));
    EXPECT_TRUE(channel.allSettled());
    EXPECT_FALSE(channel.allAcked());

    monitor.checkSwrel(channel);
    EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(ChaosSwrel, CleanDeliveryPassesTheOracle)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 21);
    chaos::InvariantMonitor monitor(cluster.fabric());
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1));
    for (std::uint8_t i = 0; i < 10; ++i)
        channel.send(std::vector<std::uint8_t>(8, i));
    ASSERT_TRUE(cluster.runUntil([&] { return channel.allAcked(); },
                                 Time::sec(1)));
    monitor.checkSwrel(channel);
    EXPECT_TRUE(monitor.clean()) << monitor.report();
}

// ---------------------------------------------------------------------
// Atomics under chaos: the A* invariant families and the replay-cache
// accounting fix. The mutation tests reproduce each fixed defect's
// symptom on the wire (raw injected packets, a test-local FaultStage,
// or a QpContext field written by hand) and require the oracle to catch
// it, while the fixed code stays clean.
// ---------------------------------------------------------------------

namespace {

std::uint64_t
read64(Node& node, std::uint64_t addr)
{
    const auto bytes = node.memory().read(addr, 8);
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data(), 8);
    return v;
}

void
write64(Node& node, std::uint64_t addr, std::uint64_t v)
{
    std::vector<std::uint8_t> bytes(8);
    std::memcpy(bytes.data(), &v, 8);
    node.memory().write(addr, bytes);
}

bool
hasViolation(const chaos::InvariantMonitor& monitor,
             const std::string& invariant)
{
    for (const auto& v : monitor.violations())
        if (v.invariant == invariant)
            return true;
    return false;
}

/** A raw AtomicRequest as the wire would carry it (FETCH_ADD). */
net::Packet
rawFetchAdd(Node& src, verbs::QueuePair& sqp, Node& dst,
            verbs::QueuePair& dqp, std::uint64_t raddr, std::uint32_t rkey,
            std::uint32_t psn, std::uint64_t add, bool retransmission)
{
    net::Packet pkt;
    pkt.op = net::Opcode::AtomicRequest;
    pkt.psn = psn;
    pkt.srcLid = src.lid();
    pkt.srcQpn = sqp.qpn();
    pkt.dstLid = dst.lid();
    pkt.dstQpn = dqp.qpn();
    pkt.raddr = raddr;
    pkt.rkey = rkey;
    pkt.length = 8;
    pkt.atomicOperand = add;
    pkt.retransmission = retransmission;
    return pkt;
}

} // namespace

TEST(ChaosAtomics, ReplayCacheAccountingBugIsCaughtByOracle)
{
    // The pre-fix responder pushed a second eviction-order entry when a
    // duplicate-PSN insert overwrote an existing cache record, so a later
    // insert evicted a record the PSN window still required. With the
    // cache squeezed to two records, the fixed half drives that exact
    // sequence: execute psn=0, re-execute it after a PSN reset (the
    // reconnect/PSN-reuse scenario that makes duplicate inserts possible
    // at all), insert psn=1, then replay psn=0 from the requester's
    // timeout path; the cache answers and A1 stays quiet. The lost half
    // reproduces the defect's symptom: three fresh inserts evict psn=0's
    // record before its replay, the responder is silent, and A1 fires.
    // Both halves also run with requester and responder on separate
    // islands, where A1 books the duplicate on the responder's island.
    for (const bool sharded : {false, true}) {
        for (const bool lost : {false, true}) {
            SCOPED_TRACE(sharded ? "sharded" : "single-queue");
            auto profile = rnic::DeviceProfile::connectX4();
            profile.atomicReplayDepth = 2;
            ClusterOptions options;
            options.sharded = sharded;
            options.jobs = 2;
            Cluster cluster(profile, 2, 13, net::LinkConfig{}, options);
            Node& a = cluster.node(0);
            Node& b = cluster.node(1);
            auto& acq = a.createCq();
            auto& bcq = b.createCq();
            auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);

            const auto counter = b.alloc(4096);
            auto& bmr =
                b.registerMemory(counter, 4096, verbs::AccessFlags::pinned());
            write64(b, counter, 42);

            chaos::InvariantMonitor monitor(cluster.fabric());
            // Watch the responder role only: the injected requests spoof
            // the requester's flow, which would otherwise fail its wire
            // checks.
            monitor.watch(b.rnic(), bqp.context());

            auto inject = [&](std::uint32_t psn, bool retrans) {
                cluster.fabric().send(rawFetchAdd(a, aqp, b, bqp, counter,
                                                  bmr.rkey(), psn,
                                                  /*add=*/0, retrans));
                cluster.advance(Time::us(50));
            };

            if (lost) {
                inject(0, false);               // fresh: cached as psn=0
                inject(1, false);
                inject(2, false);               // evicts psn=0's record
                inject(0, true);                // replay: no record
            } else {
                inject(0, false);               // fresh: cached as psn=0
                bqp.context().expectedPsn = 0;  // PSN reuse (reconnect)
                inject(0, false);               // duplicate insert of psn=0
                inject(1, false);               // squeezes the 2-deep cache
                inject(0, true);                // replay: MUST be answered
            }
            cluster.advance(Time::ms(1));
            monitor.finalCheck();

            EXPECT_EQ(hasViolation(monitor, "atomic-replay-lost"), lost)
                << "record lost " << lost << "\n"
                << monitor.report();
            // add=0 keeps every answer identical: the value family must
            // not fire in either mode.
            EXPECT_FALSE(hasViolation(monitor, "atomic-replay-value"));
        }
    }
}

namespace {

/**
 * What a responder that re-executes a duplicate FETCH_ADD puts on the
 * wire: every replayed atomic answer carries the post-update value
 * (original + @p add) instead of the cached original. chaosFlags stay 0,
 * so the oracle still attributes the answer to its PSN.
 */
class ReexecutedAnswerStage : public chaos::FaultStage
{
  public:
    explicit ReexecutedAnswerStage(std::uint64_t add) : add_(add) {}

    const char* name() const override { return "reexecuted-answer"; }

    void
    apply(std::vector<net::FaultHook::Delivery>& deliveries, Time, Rng&,
          chaos::InjectorStats&) override
    {
        for (auto& d : deliveries) {
            if (d.pkt.op != net::Opcode::AtomicResponse || !d.pkt.replayed)
                continue;
            std::uint64_t value = 0;
            std::memcpy(&value, d.pkt.payload.data(), 8);
            value += add_;
            std::memcpy(d.pkt.payload.data(), &value, 8);
        }
    }

  private:
    std::uint64_t add_;
};

} // namespace

TEST(ChaosAtomics, ReexecutingResponderIsCaughtByValueInvariant)
{
    // A responder that re-executes a duplicate atomic instead of serving
    // the replay cache returns the *new* value — the classic
    // lost-idempotence bug A1's value family exists to catch. The
    // reexecuting half rewrites the replayed answer on the wire the way
    // such a responder would.
    for (const bool reexecute : {false, true}) {
        Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 23);
        Node& a = cluster.node(0);
        Node& b = cluster.node(1);
        auto& acq = a.createCq();
        auto& bcq = b.createCq();
        auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);

        const auto counter = b.alloc(4096);
        const auto land = a.alloc(4096);
        auto& bmr =
            b.registerMemory(counter, 4096, verbs::AccessFlags::pinned());
        auto& amr =
            a.registerMemory(land, 4096, verbs::AccessFlags::pinned());
        write64(b, counter, 100);

        chaos::FaultInjector injector(23);
        if (reexecute) {
            injector.addStage(
                std::make_unique<ReexecutedAnswerStage>(/*add=*/5));
            cluster.fabric().setFaultHook(&injector);
        }

        chaos::InvariantMonitor monitor(cluster.fabric());
        monitor.watch(b.rnic(), bqp.context());

        aqp.postFetchAdd(land, amr.lkey(), counter, bmr.rkey(), 5, 1);
        ASSERT_TRUE(cluster.runUntil(
            [&] { return aqp.outstanding() == 0; }, Time::sec(1)));

        // Replay the request exactly as the timeout path would.
        cluster.fabric().send(rawFetchAdd(a, aqp, b, bqp, counter,
                                          bmr.rkey(), /*psn=*/0,
                                          /*add=*/5,
                                          /*retransmission=*/true));
        cluster.advance(Time::ms(1));
        monitor.finalCheck();

        EXPECT_EQ(hasViolation(monitor, "atomic-replay-value"), reexecute)
            << monitor.report();
        EXPECT_FALSE(hasViolation(monitor, "atomic-replay-lost"))
            << monitor.report();
        // Exactly-once on the memory side: the responder applied the
        // add once; only the replayed answer was rewritten.
        EXPECT_EQ(read64(b, counter), 105u);
    }
}

namespace {

/**
 * Models a drop class eating the packet the DuplicateStage just cloned:
 * erases every unmarked atomic answer while the marked clone survives.
 * The composition the atomic-replay thrash bench produces by chance
 * (dup + drop in one pipeline), made deterministic.
 */
class EraseOriginalAnswerStage : public chaos::FaultStage
{
  public:
    const char* name() const override { return "erase-original-answer"; }

    void
    apply(std::vector<net::FaultHook::Delivery>& deliveries, Time,
          Rng&, chaos::InjectorStats& stats) override
    {
        auto it = std::remove_if(
            deliveries.begin(), deliveries.end(),
            [&](const net::FaultHook::Delivery& d) {
                if (d.pkt.op != net::Opcode::AtomicResponse ||
                    (d.pkt.chaosFlags & net::Packet::chaosDuplicated) !=
                        0) {
                    return false;
                }
                ++stats.dropped;
                return true;
            });
        deliveries.erase(it, deliveries.end());
    }
};

} // namespace

TEST(ChaosAtomics, ClonedReplayAnswerCountsWhenOriginalIsDropped)
{
    // Faults-during-faults blind spot: the responder answers a
    // retransmitted atomic from its replay cache, the DuplicateStage
    // clones the answer, and a later drop stage erases the original in
    // the same pipeline pass. Only the chaos-marked clone reaches the
    // oracle's egress tap — it must count as the responder's answer, or
    // A1 reports a false "replay cache lost a required record".
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 31);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);

    const auto counter = b.alloc(4096);
    auto& bmr =
        b.registerMemory(counter, 4096, verbs::AccessFlags::pinned());
    write64(b, counter, 7);

    chaos::FaultInjector injector(31);
    injector.addStage(std::make_unique<chaos::DuplicateStage>(
        chaos::PacketFilter{}, /*rate=*/1.0, /*max_copy_delay=*/Time()));
    injector.addStage(std::make_unique<EraseOriginalAnswerStage>());
    cluster.fabric().setFaultHook(&injector);

    chaos::InvariantMonitor monitor(cluster.fabric());
    // Responder role only: the injected requests spoof the requester's
    // flow, which would otherwise fail its wire checks.
    monitor.watch(b.rnic(), bqp.context());

    // Fresh execute (answer arrives only as the surviving clone), then
    // a requester-timeout retransmission of the same PSN: the A1 ledger
    // books one required answer, and the replay-cache response again
    // reaches the wire only as its clone.
    cluster.fabric().send(rawFetchAdd(a, aqp, b, bqp, counter,
                                      bmr.rkey(), /*psn=*/0, /*add=*/1,
                                      /*retransmission=*/false));
    cluster.advance(Time::us(50));
    cluster.fabric().send(rawFetchAdd(a, aqp, b, bqp, counter,
                                      bmr.rkey(), /*psn=*/0, /*add=*/1,
                                      /*retransmission=*/true));
    cluster.advance(Time::ms(1));
    monitor.finalCheck();

    EXPECT_FALSE(hasViolation(monitor, "atomic-replay-lost"))
        << monitor.report();
    EXPECT_EQ(monitor.violationCount(), 0u) << monitor.report();
    // The cache answered the replay: exactly one application.
    EXPECT_EQ(read64(b, counter), 8u);
    EXPECT_GE(injector.stats().duplicated, 2u);
    EXPECT_GE(injector.stats().dropped, 2u);
}

TEST(ChaosAtomics, AtomicStormUnderFullChaosIsExactlyOnce)
{
    // Atomics under every fault class at once: duplicates and reordering
    // force replay-cache service at realistic depth, forged NAKs force
    // go-back-N rewinds over atomic WQEs. The counter must land on
    // exactly ops * add and the oracle (A1/A2 included) must stay clean.
    auto runStorm = [](std::uint64_t seed) {
        auto profile = rnic::DeviceProfile::connectX4();
        Cluster cluster(profile, 2, 29);
        chaos::ChaosEngine engine(cluster.events(),
                                  everythingConfig(seed));
        Node& a = cluster.node(0);
        Node& b = cluster.node(1);
        auto& acq = a.createCq();
        auto& bcq = b.createCq();
        auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
        (void)bqp;

        const auto counter = b.alloc(4096);
        const auto land = a.alloc(4096);
        auto& bmr =
            b.registerMemory(counter, 4096, verbs::AccessFlags::pinned());
        auto& amr =
            a.registerMemory(land, 4096, verbs::AccessFlags::pinned());
        write64(b, counter, 1000);

        engine.install(cluster.fabric());
        chaos::InvariantMonitor monitor(cluster.fabric());
        monitor.watch(a.rnic(), aqp.context());
        monitor.watch(b.rnic(), bqp.context());

        constexpr std::size_t ops = 60;
        Rng& rng = cluster.rng();
        for (std::size_t i = 0; i < ops; ++i) {
            if (i % 2 == 0) {
                aqp.postFetchAdd(land + (i % 64) * 8, amr.lkey(), counter,
                                 bmr.rkey(), 3, i + 1);
            } else {
                // Failing CMP_SWAP: reads the counter without changing
                // it, interleaving atomics that contend on one address.
                aqp.postCompSwap(land + (i % 64) * 8, amr.lkey(), counter,
                                 bmr.rkey(), /*compare=*/0, /*swap=*/1,
                                 i + 1);
            }
            cluster.advance(rng.uniformTime(Time::us(1), Time::us(20)));
        }
        EXPECT_TRUE(cluster.runUntil(
            [&] {
                return aqp.outstanding() == 0 &&
                       acq.totalCompletions() >= ops;
            },
            cluster.now() + Time::sec(600)));
        monitor.finalCheck();
        EXPECT_TRUE(monitor.clean()) << monitor.report();
        EXPECT_EQ(acq.totalCompletions(), ops);
        EXPECT_EQ(read64(b, counter), 1000 + (ops / 2) * 3);
        return monitor.traceHash();
    };

    // Fixed seed: bit-identical replay.
    EXPECT_EQ(runStorm(77), runStorm(77));
    EXPECT_NE(runStorm(77), runStorm(78));
}

// ---------------------------------------------------------------------
// Forged-NAK ACK-coalescing edge case: a forged NAK whose PSN lands
// inside an already-coalesced ACK range rewinds the requester into
// territory it has already retired. Completed WQEs must not retire
// twice (C1 + the exact completion count).
// ---------------------------------------------------------------------

TEST(ChaosForgedNak, CoalescedAckRangeCausesNoDoubleRetire)
{
    chaos::ChaosConfig cfg;
    cfg.seed = 101;
    cfg.forgedNakRate = 0.02;
    cfg.forgedNakMaxRewind = 8;  // land inside coalesced ACK ranges
    cfg.delayRate = 0.2;         // widen ACK coalescing windows
    ChaosWorkload w(cfg, /*cluster_seed=*/7, /*op_count=*/40);
    EXPECT_TRUE(w.run());
    EXPECT_TRUE(w.monitor.clean()) << w.monitor.report();
    // Every WR retired exactly once despite rewinds below the window.
    EXPECT_EQ(w.acq->totalCompletions(), w.ops);
    EXPECT_GT(w.engine.injector().stats().naksForged, 0u);
}

// ---------------------------------------------------------------------
// UD edge cases: unrouted egress, drop accounting, and the U* families.
// ---------------------------------------------------------------------

namespace {

verbs::QpConfig
udConfig()
{
    verbs::QpConfig config;
    config.transport = verbs::Transport::Ud;
    return config;
}

} // namespace

TEST(ChaosUd, UnknownLidDatagramCountsUnroutedDrop)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 5);
    Node& a = cluster.node(0);
    auto& acq = a.createCq();
    auto aqp = a.createQp(acq, udConfig());
    aqp.connect(0, 0);

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());

    const auto src = a.alloc(4096);
    a.touch(src, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());

    // LID 9 is nowhere on this two-node fabric.
    aqp.postSendUd({9, 1}, src, amr.lkey(), 32, 1);
    cluster.advance(Time::ms(1));

    EXPECT_EQ(a.rnic().stats().udUnroutedDrops, 1u);
    EXPECT_EQ(aqp.stats().completions, 1u);  // still fire-and-forget
    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
    EXPECT_EQ(monitor.packetsObserved(), 1u);
}

TEST(ChaosUd, SilentDropAccountingBugIsCaughtByOracle)
{
    // Seven datagrams into four RECVs: three drops the responder must
    // count. The pre-fix responder dropped without counting, breaking the
    // delivered == received + counted-drops conservation U3 checks; the
    // silent half reproduces that by zeroing the drop counter.
    for (const bool silent : {false, true}) {
        Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 11);
        Node& a = cluster.node(0);
        Node& b = cluster.node(1);
        auto& acq = a.createCq();
        auto& bcq = b.createCq();
        auto aqp = a.createQp(acq, udConfig());
        auto bqp = b.createQp(bcq, udConfig());
        aqp.connect(0, 0);
        bqp.connect(0, 0);

        chaos::InvariantMonitor monitor(cluster.fabric());
        monitor.watch(a.rnic(), aqp.context());
        monitor.watch(b.rnic(), bqp.context());

        const auto src = a.alloc(4096);
        const auto dst = b.alloc(4096);
        a.touch(src, 4096);
        b.touch(dst, 4096);
        auto& amr =
            a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
        auto& bmr =
            b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());

        for (std::size_t i = 0; i < 4; ++i)
            bqp.postRecv(dst + i * 256, bmr.lkey(), 256, 100 + i);
        for (std::size_t i = 0; i < 7; ++i) {
            aqp.postSendUd({b.lid(), bqp.qpn()}, src, amr.lkey(), 32,
                           i + 1);
            cluster.advance(Time::us(20));
        }
        cluster.advance(Time::ms(1));

        EXPECT_EQ(bqp.stats().udDeliveredSends, 7u);
        EXPECT_EQ(bqp.stats().udDrops, 3u);
        EXPECT_EQ(bcq.totalCompletions(), 4u);  // per-packet completion
        if (silent)
            bqp.context().stats.udDrops = 0;
        monitor.finalCheck();

        EXPECT_EQ(hasViolation(monitor, "ud-silent-drop"), silent)
            << monitor.report();
        if (!silent) {
            EXPECT_TRUE(monitor.clean()) << monitor.report();
        }
    }
}

// ---------------------------------------------------------------------
// UC: fire-and-forget contract under loss — completes at post, silent
// drops, never a response or retransmission (V1/V2/V3 stay quiet).
// ---------------------------------------------------------------------

TEST(ChaosUc, FireAndForgetStaysCleanUnderDrops)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 31);
    chaos::ChaosConfig cfg;
    cfg.seed = 31;
    cfg.dropRate = 0.3;
    cfg.delayRate = 0.2;
    chaos::ChaosEngine engine(cluster.events(), cfg);

    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    verbs::QpConfig uc;
    uc.transport = verbs::Transport::Uc;
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq, uc);

    const auto src = a.alloc(8192);
    const auto dst = b.alloc(8192);
    a.touch(src, 8192);
    b.touch(dst, 8192);
    auto& amr = a.registerMemory(src, 8192, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 8192, verbs::AccessFlags::pinned());

    engine.install(cluster.fabric());
    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());
    monitor.watch(b.rnic(), bqp.context());

    constexpr std::size_t ops = 30;
    for (std::size_t i = 0; i < ops; ++i)
        bqp.postRecv(dst + 4096 + (i % 8) * 256, bmr.lkey(), 256,
                     100 + i);
    for (std::size_t i = 0; i < ops; ++i) {
        if (i % 2 == 0) {
            aqp.postWrite(src + (i % 8) * 256, amr.lkey(),
                          dst + (i % 8) * 256, bmr.rkey(), 128, i + 1);
        } else {
            aqp.postSend(src + (i % 8) * 256, amr.lkey(), 64, i + 1);
        }
        cluster.advance(Time::us(10));
    }
    cluster.advance(Time::ms(2));
    monitor.finalCheck();

    EXPECT_TRUE(monitor.clean()) << monitor.report();
    EXPECT_EQ(acq.totalCompletions(), ops);  // completed at post
    EXPECT_EQ(aqp.outstanding(), 0u);
}

// ---------------------------------------------------------------------
// Tentpole: multi-node topology with per-link flap schedules, soaked
// with mixed verbs (RC atomics, UD datagrams, UC writes) and audited by
// watchAll(). The fixed-seed trace hash is golden: any change to the
// schedule derivation or the fault pipeline shows up here.
// ---------------------------------------------------------------------

TEST(ChaosTopology, SeedDeterministicIndependentSchedules)
{
    chaos::Topology t1(3, 99);
    chaos::Topology t2(3, 99);
    const chaos::FlapPlan plan{Time::ms(1), Time::us(300)};
    t1.setDefaultPlan(plan);
    t2.setDefaultPlan(plan);

    bool schedules_differ = false;
    for (int i = 0; i < 4000; ++i) {
        const Time now = Time::us(10.0 * i);
        const bool l12 = t1.linkUp(1, 2, now);
        const bool l13 = t1.linkUp(1, 3, now);
        const bool l23 = t1.linkUp(2, 3, now);
        // Same seed => identical schedules, link by link.
        EXPECT_EQ(l12, t2.linkUp(1, 2, now));
        EXPECT_EQ(l13, t2.linkUp(1, 3, now));
        EXPECT_EQ(l23, t2.linkUp(2, 3, now));
        if (l12 != l13 || l12 != l23)
            schedules_differ = true;
    }
    // Per-link SeedStream indices: the links flap independently.
    EXPECT_TRUE(schedules_differ);
    EXPECT_GT(t1.totalFlaps(), 0u);
    EXPECT_EQ(t1.totalFlaps(), t2.totalFlaps());

    // Direction-insensitive and tolerant of off-mesh LIDs.
    EXPECT_EQ(t1.linkUp(2, 1, Time::ms(41)), t2.linkUp(1, 2, Time::ms(41)));
    EXPECT_TRUE(t1.linkUp(0, 2, Time::ms(41)));
    EXPECT_TRUE(t1.linkUp(1, 9, Time::ms(41)));
    EXPECT_TRUE(t1.linkUp(2, 2, Time::ms(41)));
}

namespace {

struct MeshSoakResult
{
    std::uint64_t hash = 0;
    std::uint64_t violations = 0;
    std::uint64_t flaps = 0;
    std::uint64_t wireDropped = 0;  ///< summed over the lane pipelines
    std::uint64_t counter = 0;
    bool drained = false;
    std::string report;
};

/**
 * The 4-node mesh soak: RC writes+atomics on 1<->2, RC reads+sends on
 * 3<->4, UD datagrams 1->3, UC writes 2->4, every link flapping on its
 * own schedule, plus packet-level chaos on top.
 *
 * jobs == 0 runs the historical single-queue simulation (the golden
 * trace below pins that path byte-for-byte). jobs > 0 runs island mode
 * on a ShardedKernel with that many workers; island mode is its own
 * deterministic schedule, so its hash differs from single-queue but
 * must be identical across worker counts.
 */
MeshSoakResult
runMeshSoak(std::uint64_t seed, unsigned jobs = 0)
{
    MeshSoakResult out;
    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 4, seed,
                    net::LinkConfig{}, options);

    chaos::ChaosConfig cfg;
    cfg.seed = seed;
    cfg.dropRate = 0.01;
    cfg.dupRate = 0.03;
    cfg.reorderRate = 0.03;
    cfg.delayRate = 0.1;
    chaos::ChaosEngine engine(cluster.events(), cfg);

    chaos::Topology topo(4, seed);
    topo.setDefaultPlan({Time::us(500), Time::us(120)});
    topo.setLinkPlan(1, 3, {Time::us(300), Time::us(180)});
    engine.attachTopology(topo);
    engine.install(cluster.fabric());

    chaos::InvariantMonitor monitor(cluster.fabric());

    Node& n0 = cluster.node(0);
    Node& n1 = cluster.node(1);
    Node& n2 = cluster.node(2);
    Node& n3 = cluster.node(3);
    auto& cq0 = n0.createCq();
    auto& cq1 = n1.createCq();
    auto& cq2 = n2.createCq();
    auto& cq3 = n3.createCq();

    auto [rc01a, rc01b] = cluster.connectRc(n0, cq0, n1, cq1);
    auto [rc23a, rc23b] = cluster.connectRc(n2, cq2, n3, cq3);
    auto ud0 = n0.createQp(cq0, udConfig());
    auto ud2 = n2.createQp(cq2, udConfig());
    ud0.connect(0, 0);
    ud2.connect(0, 0);
    verbs::QpConfig uc;
    uc.transport = verbs::Transport::Uc;
    auto [uc1, uc3] = cluster.connectRc(n1, cq1, n3, cq3, uc);

    constexpr std::uint64_t bufBytes = 16 * 1024;
    std::uint64_t buf[4];
    verbs::MemoryRegion* mr[4];
    Node* nodes[4] = {&n0, &n1, &n2, &n3};
    for (int i = 0; i < 4; ++i) {
        buf[i] = nodes[i]->alloc(bufBytes);
        nodes[i]->touch(buf[i], bufBytes);
        mr[i] = &nodes[i]->registerMemory(buf[i], bufBytes,
                                          verbs::AccessFlags::pinned());
    }
    const std::uint64_t counter = buf[1];  // atomic target on n1
    write64(n1, counter, 500);

    monitor.watchAll(cluster);

    constexpr std::size_t rcOps = 24;
    constexpr std::size_t udOps = 15;
    constexpr std::size_t ucOps = 12;
    for (std::size_t i = 0; i < rcOps; ++i)
        rc23b.postRecv(buf[3] + 8192 + (i % 16) * 256, mr[3]->lkey(), 256,
                       500 + i);
    for (std::size_t i = 0; i < udOps; ++i)
        ud2.postRecv(buf[2] + 8192 + (i % 16) * 256, mr[2]->lkey(), 256,
                     700 + i);
    for (std::size_t i = 0; i < ucOps; ++i)
        uc3.postRecv(buf[3] + 12288 + (i % 8) * 256, mr[3]->lkey(), 256,
                     900 + i);

    Rng& rng = cluster.rng();
    for (std::size_t i = 0; i < rcOps; ++i) {
        // 1<->2: writes and contended atomics.
        if (i % 3 == 0) {
            rc01a.postFetchAdd(buf[0] + 1024 + (i % 16) * 8,
                               mr[0]->lkey(), counter, mr[1]->rkey(), 2,
                               i + 1);
        } else {
            rc01a.postWrite(buf[0] + (i % 16) * 256, mr[0]->lkey(),
                            buf[1] + 4096 + (i % 16) * 256,
                            mr[1]->rkey(), 128, i + 1);
        }
        // 3<->4: reads and sends.
        if (i % 2 == 0) {
            rc23a.postRead(buf[2] + (i % 16) * 256, mr[2]->lkey(),
                           buf[3] + (i % 16) * 256, mr[3]->rkey(), 128,
                           i + 1);
        } else {
            rc23a.postSend(buf[2] + 4096 + (i % 16) * 256, mr[2]->lkey(),
                           64, i + 1);
        }
        if (i < udOps)
            ud0.postSendUd({n2.lid(), ud2.qpn()}, buf[0] + 2048,
                           mr[0]->lkey(), 32, 100 + i);
        if (i < ucOps)
            uc1.postWrite(buf[1] + (i % 8) * 256, mr[1]->lkey(),
                          buf[3] + 12288 + (i % 8) * 256, mr[3]->rkey(),
                          128, 200 + i);
        cluster.advance(rng.uniformTime(Time::us(20), Time::us(80)));
    }

    out.drained = cluster.runUntil(
        [&] {
            return rc01a.outstanding() == 0 && rc23a.outstanding() == 0;
        },
        cluster.now() + Time::sec(600));
    cluster.advance(Time::ms(5));  // let stray UD/UC deliveries land
    monitor.finalCheck();

    out.hash = monitor.traceHash();
    out.violations = monitor.violationCount();
    out.flaps = engine.flaps();
    out.wireDropped = engine.stats().wire.dropped;
    out.counter = read64(n1, counter);
    out.report = monitor.report();
    return out;
}

} // namespace

TEST(ChaosTopology, FourNodeMeshSoakIsCleanAndGolden)
{
    const MeshSoakResult r = runMeshSoak(2026);
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.violations, 0u) << r.report;
    EXPECT_GT(r.flaps, 0u);  // the mesh really flapped
    // 8 FetchAdds (i % 3 == 0, i < 24) of +2 each, exactly once.
    EXPECT_EQ(r.counter, 500u + 8 * 2);

    // Bit-identical replay, pinned to a recorded golden so that any
    // change to schedule derivation or pipeline ordering is loud.
    const MeshSoakResult again = runMeshSoak(2026);
    EXPECT_EQ(r.hash, again.hash);
    EXPECT_EQ(r.hash, 0x8133ce175f4220c2ull);
    EXPECT_NE(runMeshSoak(2027).hash, r.hash);
}

// ---------------------------------------------------------------------
// Island-mode differential: the same mesh soak on the sharded kernel
// must be bit-identical across worker counts — jobs = 1 (inline, zero
// threads) is the reference schedule and every thread count replays it.
// ---------------------------------------------------------------------

TEST(ChaosTopology, MeshSoakShardedIsJobInvariant)
{
    const MeshSoakResult seq = runMeshSoak(2026, 1);
    EXPECT_TRUE(seq.drained);
    EXPECT_EQ(seq.violations, 0u) << seq.report;
    EXPECT_GT(seq.flaps, 0u);
    EXPECT_GT(seq.wireDropped, 0u);
    // Atomic semantics are schedule-independent: exactly-once FetchAdds.
    EXPECT_EQ(seq.counter, 500u + 8 * 2);

    for (unsigned jobs : {2u, 4u, 8u}) {
        const MeshSoakResult par = runMeshSoak(2026, jobs);
        EXPECT_TRUE(par.drained) << "jobs=" << jobs;
        EXPECT_EQ(par.hash, seq.hash) << "jobs=" << jobs;
        EXPECT_EQ(par.violations, seq.violations)
            << "jobs=" << jobs << "\n" << par.report;
        EXPECT_EQ(par.flaps, seq.flaps) << "jobs=" << jobs;
        EXPECT_EQ(par.wireDropped, seq.wireDropped) << "jobs=" << jobs;
        EXPECT_EQ(par.counter, seq.counter) << "jobs=" << jobs;
    }

    // A different seed is a genuinely different campaign.
    EXPECT_NE(runMeshSoak(2027, 2).hash, seq.hash);
}

// ---------------------------------------------------------------------
// PR-8 tentpole: the port-event link model and the QP error/recovery
// machinery above it (DESIGN.md §13). Link failures become protocol-
// visible async events instead of silent drops; QPs whose retries
// exhaust while their path is down enter an explicit Error state and —
// profile-gated — re-arm through reset -> init -> RTR -> RTS when the
// path returns, or reroute around the cut when the mesh has a spare
// link. The legacy silent-drop TopologyStage keeps its golden above.
// ---------------------------------------------------------------------

namespace {

/** Cut (or restore) the {a, b} link and deliver path events to both
 * endpoints, the way PortEventDriver would at a window boundary. */
void
flipLink(Cluster& cluster, std::uint16_t a, std::uint16_t b, bool up,
         bool redundant = false)
{
    cluster.fabric().setLaneLinkState(0, a, b, up);
    net::PortEvent ev;
    ev.type = up ? net::PortEvent::Type::PathUp
                 : net::PortEvent::Type::PathDown;
    ev.redundantPath = redundant;
    ev.lid = a;
    ev.peerLid = b;
    cluster.fabric().raisePortEvent(a, ev);
    ev.lid = b;
    ev.peerLid = a;
    cluster.fabric().raisePortEvent(b, ev);
}

/** Short transport timeouts so retry exhaustion fits in a test. */
rnic::DeviceProfile
recoveryProfile()
{
    auto profile = rnic::DeviceProfile::connectX4();
    profile.qpRecoveryOnPortUp = true;
    profile.minCack = 5;  // T_tr ~131us instead of the vendor ~268ms
    return profile;
}

verbs::QpConfig
fastRetryConfig()
{
    verbs::QpConfig config;
    config.cack = 5;
    config.cretry = 1;  // exhaust after ~0.5ms of dead path
    return config;
}

bool
sawAsyncEvent(const std::vector<verbs::AsyncEvent>& events,
              verbs::AsyncEventType type)
{
    for (const auto& ev : events)
        if (ev.type == type)
            return true;
    return false;
}

} // namespace

TEST(ChaosPortEvents, FlapMidReadRecoversViaRearm)
{
    Cluster cluster(recoveryProfile(), 2, 33);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq,
                                        fastRetryConfig());

    const auto src = a.alloc(4096);
    const auto dst = b.alloc(4096);
    a.touch(src, 4096);
    b.touch(dst, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());
    write64(b, dst, 0xfeedface);

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());
    monitor.watch(b.rnic(), bqp.context());

    std::vector<verbs::AsyncEvent> events;
    a.rnic().addAsyncEventTap(
        [&](const verbs::AsyncEvent& ev) { events.push_back(ev); });

    // Cut the path mid-READ: the response in flight is lost at the
    // ingress gate, every blind retransmission dies at the egress gate,
    // and the retry budget exhausts while the path stays down.
    // The request is on the wire the moment it is posted; cutting the
    // link now kills the response (and every retransmission) at the
    // egress gate while the request itself is still in flight.
    aqp.postRead(src, amr.lkey(), dst, bmr.rkey(), 64, 1);
    flipLink(cluster, a.lid(), b.lid(), /*up=*/false);
    cluster.advance(Time::ms(5));

    EXPECT_TRUE(aqp.inError());
    EXPECT_EQ(aqp.context().state, rnic::QpState::Error);
    EXPECT_EQ(acq.totalCompletions(), 1u);  // flushed, exactly once
    EXPECT_EQ(acq.totalErrors(), 1u);
    EXPECT_GT(a.rnic().stats().portDownEvents, 0u);
    EXPECT_EQ(a.rnic().stats().qpsEnteredError, 1u);

    // Error state stops the retransmit machinery: no matter how long the
    // outage lasts, the retry counter is frozen — the pre-PR behaviour
    // was an unbounded 0.5 ms blind-retransmit loop.
    const auto rexmitsAtError = aqp.stats().retransmissions;
    cluster.advance(Time::ms(20));
    EXPECT_EQ(aqp.stats().retransmissions, rexmitsAtError);

    // Path back up: the profile-gated re-arm runs the CM handshake under
    // a fresh epoch and lands the QP back in RTS.
    flipLink(cluster, a.lid(), b.lid(), /*up=*/true);
    cluster.advance(Time::ms(5));
    EXPECT_EQ(aqp.context().state, rnic::QpState::Rts);
    EXPECT_FALSE(aqp.inError());
    EXPECT_EQ(a.rnic().stats().qpsRecovered, 1u);
    EXPECT_GT(a.rnic().stats().cmRearmsSent, 0u);
    EXPECT_GT(aqp.context().resetEpoch, 0u);

    // The re-armed QP carries fresh traffic.
    aqp.postRead(src + 128, amr.lkey(), dst, bmr.rkey(), 8, 2);
    ASSERT_TRUE(cluster.runUntil([&] { return aqp.outstanding() == 0; },
                                 cluster.now() + Time::sec(1)));
    EXPECT_EQ(acq.totalSuccess(), 1u);
    EXPECT_EQ(read64(a, src + 128), 0xfeedfaceull);

    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();

    // The ibv_async_event-style surface narrated the whole episode.
    EXPECT_TRUE(sawAsyncEvent(events, verbs::AsyncEventType::PathError));
    EXPECT_TRUE(sawAsyncEvent(events, verbs::AsyncEventType::QpFatal));
    EXPECT_TRUE(sawAsyncEvent(events, verbs::AsyncEventType::PathActive));
    EXPECT_TRUE(sawAsyncEvent(events,
                              verbs::AsyncEventType::QpRecovered));
}

TEST(ChaosPortEvents, RecoveryFlagOffLeavesQpInError)
{
    // Flag-flip: with qpRecoveryOnPortUp off (the default), the same
    // episode strands the QP in Error forever — the pre-recovery
    // behaviour — and posts flush immediately.
    auto profile = recoveryProfile();
    profile.qpRecoveryOnPortUp = false;
    Cluster cluster(profile, 2, 35);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq,
                                        fastRetryConfig());
    (void)bqp;

    const auto src = a.alloc(4096);
    const auto dst = b.alloc(4096);
    a.touch(src, 4096);
    b.touch(dst, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());

    // The request is on the wire the moment it is posted; cutting the
    // link now kills the response (and every retransmission) at the
    // egress gate while the request itself is still in flight.
    aqp.postRead(src, amr.lkey(), dst, bmr.rkey(), 64, 1);
    flipLink(cluster, a.lid(), b.lid(), /*up=*/false);
    cluster.advance(Time::ms(5));
    ASSERT_TRUE(aqp.inError());

    flipLink(cluster, a.lid(), b.lid(), /*up=*/true);
    cluster.advance(Time::ms(10));
    EXPECT_EQ(aqp.context().state, rnic::QpState::Error);
    EXPECT_EQ(a.rnic().stats().qpsRecovered, 0u);
    EXPECT_EQ(a.rnic().stats().cmRearmsSent, 0u);

    // Post-while-Error: immediate flush completion, no wire traffic.
    const auto sentBefore = a.rnic().stats().packetsSent;
    aqp.postRead(src + 128, amr.lkey(), dst, bmr.rkey(), 8, 2);
    EXPECT_EQ(acq.totalCompletions(), 2u);
    EXPECT_EQ(acq.totalErrors(), 2u);
    EXPECT_EQ(a.rnic().stats().packetsSent, sentBefore);
}

TEST(ChaosPortEvents, SmRerouteBridgesRedundantMeshLink)
{
    // Flag-flip: with smReroute on and a redundant mesh link out of the
    // port, a cut path is healed by an SM-style reroute after the sweep
    // delay — the READ completes *during* the down window, no Error
    // state, at one extra hop of latency.
    auto profile = recoveryProfile();
    profile.smReroute = true;
    Cluster cluster(profile, 3, 37);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    verbs::QpConfig config;
    config.cack = 5;
    config.cretry = 7;  // survive timeouts until the SM sweep lands
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq, config);
    (void)bqp;

    const auto src = a.alloc(4096);
    const auto dst = b.alloc(4096);
    a.touch(src, 4096);
    b.touch(dst, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());
    write64(b, dst, 0xabadcafe);

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());
    monitor.watch(b.rnic(), bqp.context());

    aqp.postRead(src, amr.lkey(), dst, bmr.rkey(), 8, 1);
    // Node 3's links to both endpoints are still up: redundant path.
    flipLink(cluster, a.lid(), b.lid(), /*up=*/false,
             /*redundant=*/true);
    ASSERT_TRUE(cluster.runUntil([&] { return aqp.outstanding() == 0; },
                                 cluster.now() + Time::sec(1)));

    // Completed while the direct link is still down.
    EXPECT_FALSE(aqp.inError());
    EXPECT_EQ(acq.totalSuccess(), 1u);
    EXPECT_EQ(read64(a, src), 0xabadcafeull);
    EXPECT_GE(a.rnic().stats().reroutes, 1u);
    EXPECT_TRUE(aqp.context().rerouted);
    EXPECT_EQ(a.rnic().stats().qpsEnteredError, 0u);

    // Link restoration clears the detour.
    flipLink(cluster, a.lid(), b.lid(), /*up=*/true);
    cluster.advance(Time::us(1));
    EXPECT_FALSE(aqp.context().rerouted);

    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(ChaosPortEvents, FlushErrorCompletionsArriveOnceInPostOrder)
{
    // Retry exhaustion with a deep queue: the failing head WR carries
    // RETRY_EXC_ERR and every queued WR behind it flushes with
    // WR_FLUSH_ERR, in post order, exactly once.
    Cluster cluster(recoveryProfile(), 2, 39);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq,
                                        fastRetryConfig());
    (void)bqp;

    const auto src = a.alloc(4096);
    const auto dst = b.alloc(4096);
    a.touch(src, 4096);
    b.touch(dst, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());

    std::vector<verbs::WorkCompletion> seen;
    acq.addTap(
        [&](const verbs::WorkCompletion& wc) { seen.push_back(wc); });

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());
    monitor.watch(b.rnic(), bqp.context());

    // Cut first: all three WRITEs die at the egress gate, so the head
    // WR exhausts its retries and drags the queue into the flush.
    flipLink(cluster, a.lid(), b.lid(), /*up=*/false);
    for (std::uint64_t i = 0; i < 3; ++i)
        aqp.postWrite(src + i * 256, amr.lkey(), dst + i * 256,
                      bmr.rkey(), 64, i + 1);
    cluster.advance(Time::ms(5));

    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].wrId, 1u);
    EXPECT_EQ(seen[0].status, verbs::WcStatus::RetryExcErr);
    EXPECT_EQ(seen[1].wrId, 2u);
    EXPECT_EQ(seen[1].status, verbs::WcStatus::WrFlushErr);
    EXPECT_EQ(seen[2].wrId, 3u);
    EXPECT_EQ(seen[2].status, verbs::WcStatus::WrFlushErr);

    // And only once: a long stay in Error adds nothing.
    cluster.advance(Time::ms(20));
    EXPECT_EQ(acq.totalCompletions(), 3u);

    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
}

TEST(ChaosPortEvents, DriverRunsSchedulesInSingleQueueMode)
{
    // PortEventDriver end to end in the historical single-queue mode: a
    // flapping 2-node link raises real events on the one shared queue
    // and the workload survives the windows.
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 41);
    chaos::ChaosConfig cfg;
    cfg.seed = 41;
    chaos::ChaosEngine engine(cluster.events(), cfg);
    chaos::Topology topo(2, 41);
    topo.setLinkPlan(1, 2, {Time::us(500), Time::us(120)});
    engine.attachPortEvents(topo);
    engine.install(cluster.fabric());
    ASSERT_NE(engine.portEvents(), nullptr);

    chaos::InvariantMonitor monitor(cluster.fabric());
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
    (void)bqp;

    const auto src = a.alloc(8192);
    const auto dst = b.alloc(8192);
    a.touch(src, 8192);
    b.touch(dst, 8192);
    auto& amr = a.registerMemory(src, 8192, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 8192, verbs::AccessFlags::pinned());

    monitor.watchAll(cluster);

    for (std::size_t i = 0; i < 20; ++i) {
        aqp.postWrite(src + (i % 16) * 256, amr.lkey(),
                      dst + (i % 16) * 256, bmr.rkey(), 128, i + 1);
        cluster.advance(Time::us(60));
    }
    ASSERT_TRUE(cluster.runUntil([&] { return aqp.outstanding() == 0; },
                                 cluster.now() + Time::sec(600)));
    cluster.advance(Time::ms(2));
    monitor.finalCheck();

    EXPECT_GT(engine.portEvents()->linkFlaps(), 0u);
    EXPECT_GT(engine.portEvents()->eventsRaised(), 0u);
    EXPECT_GT(a.rnic().stats().portDownEvents, 0u);
    EXPECT_GT(a.rnic().stats().portUpEvents, 0u);
    EXPECT_EQ(monitor.violationCount(), 0u) << monitor.report();
    EXPECT_EQ(acq.totalSuccess(), 20u);
}

// ---------------------------------------------------------------------
// The combined-storm soak: a 64-node sharded mesh where a chain of
// links flaps on port-event schedules, one pair's link dies long enough
// to exhaust its (deliberately tight) retry budget, and
// CombinedStormStage fires ODP invalidation storms plus CQ-capacity
// clamps *inside* the down windows. Faults during faults: the recovery
// machinery must run concurrently with page-fault storms and completion
// pressure, with zero oracle violations and a bit-identical fixed-seed
// hash at any worker count.
// ---------------------------------------------------------------------

namespace {

/** Recorded fixed-seed hash of runCombinedStormSoak(4046, 1) (the soak
 * runs the per-page ODP state machine, like every other path). */
constexpr std::uint64_t kCombinedStormGolden = 0x124f0385b66334f2ull;

struct StormSoakResult
{
    std::uint64_t hash = 0;
    std::uint64_t violations = 0;
    std::uint64_t flaps = 0;
    Cluster::PortEventSummary ports;
    chaos::CombinedStormStats storm;
    std::uint64_t notifierWindows = 0;  ///< summed over storm targets
    std::uint64_t completions = 0;
    bool drained = false;
    std::string report;
};

StormSoakResult
runCombinedStormSoak(std::uint64_t seed, unsigned jobs)
{
    constexpr std::size_t nodeCount = 64;
    StormSoakResult out;
    ClusterOptions options;
    options.sharded = true;
    options.jobs = jobs;
    Cluster cluster(recoveryProfile(), nodeCount, seed, net::LinkConfig{},
                    options);

    chaos::ChaosEngine engine(cluster.events(), [&] {
        chaos::ChaosConfig cfg;
        cfg.seed = seed;
        cfg.dupRate = 0.02;
        cfg.delayRate = 0.05;
        return cfg;
    }());

    // A chain of flapping links over the whole mesh: every {lid, lid+1}
    // link — the intra-pair traffic links among them — flaps with short
    // windows; pair 0's link gets long outages that exhaust its QP's
    // tight retry budget, forcing Error -> re-arm cycles mid-soak.
    chaos::Topology topo(nodeCount, seed);
    for (std::uint16_t lid = 1; lid < nodeCount; ++lid)
        topo.setLinkPlan(lid, lid + 1,
                         {Time::us(800), Time::us(150)});
    topo.setLinkPlan(1, 2, {Time::ms(2), Time::ms(4)});
    engine.attachPortEvents(topo);
    engine.install(cluster.fabric());

    chaos::InvariantMonitor monitor(cluster.fabric());

    // 32 RC pairs (node 2k -> node 2k+1); responders expose ODP regions
    // the storm invalidates. Pair 0 runs the tight retry budget.
    constexpr std::size_t pairs = nodeCount / 2;
    constexpr std::uint64_t bufBytes = 16 * 1024;
    std::vector<verbs::QueuePair> req(pairs);
    std::vector<std::uint64_t> srcBuf(pairs), dstBuf(pairs);
    std::vector<verbs::MemoryRegion*> srcMr(pairs), dstMr(pairs);
    std::vector<verbs::CompletionQueue*> reqCq(pairs), rspCq(pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
        Node& cli = cluster.node(2 * k);
        Node& srv = cluster.node(2 * k + 1);
        reqCq[k] = &cli.createCq();
        rspCq[k] = &srv.createCq();
        verbs::QpConfig config;
        config.cack = k == 0 ? 5 : 8;
        config.cretry = k == 0 ? 1 : 7;
        auto [qa, qb] =
            cluster.connectRc(cli, *reqCq[k], srv, *rspCq[k], config);
        req[k] = qa;
        (void)qb;
        srcBuf[k] = cli.alloc(bufBytes);
        dstBuf[k] = srv.alloc(bufBytes);
        cli.touch(srcBuf[k], bufBytes);
        srv.touch(dstBuf[k], bufBytes);
        srcMr[k] = &cli.registerMemory(srcBuf[k], bufBytes,
                                       verbs::AccessFlags::pinned());
        dstMr[k] = &srv.registerMemory(dstBuf[k], bufBytes,
                                       verbs::AccessFlags::odp());
    }

    monitor.watchAll(cluster);

    // Storms on every eighth pair's responder (pair 0 included, so the
    // invalidation bursts overlap its long link outages).
    chaos::CombinedStormConfig stormCfg;
    stormCfg.seed = seed;
    stormCfg.tickInterval = Time::us(50);
    stormCfg.duration = Time::ms(50);
    stormCfg.pagesPerBurst = 2;
    stormCfg.squeezeCapacity = 48;
    chaos::CombinedStormStage storm(cluster.fabric(), topo, stormCfg);
    for (std::size_t k = 0; k < pairs; k += 8) {
        Node& srv = cluster.node(2 * k + 1);
        storm.addTarget(srv.lid(), srv.driver(), dstMr[k]->table(),
                        dstBuf[k], bufBytes, *rspCq[k]);
    }
    storm.start();

    constexpr std::size_t rounds = 6;
    Rng& rng = cluster.rng();
    for (std::size_t i = 0; i < rounds; ++i) {
        for (std::size_t k = 0; k < pairs; ++k) {
            if (i % 2 == 0) {
                req[k].postWrite(srcBuf[k] + (i % 16) * 256,
                                 srcMr[k]->lkey(),
                                 dstBuf[k] + (i % 16) * 256,
                                 dstMr[k]->rkey(), 128, i + 1);
            } else {
                req[k].postRead(srcBuf[k] + 8192 + (i % 16) * 256,
                                srcMr[k]->lkey(),
                                dstBuf[k] + 8192 + (i % 16) * 256,
                                dstMr[k]->rkey(), 128, i + 1);
            }
        }
        cluster.advance(rng.uniformTime(Time::us(20), Time::us(80)));
    }

    out.drained = cluster.runUntil(
        [&] {
            for (std::size_t k = 0; k < pairs; ++k)
                if (req[k].outstanding() != 0)
                    return false;
            return true;
        },
        cluster.now() + Time::sec(600));
    cluster.advance(Time::ms(10));
    monitor.finalCheck();

    out.hash = monitor.traceHash();
    out.violations = monitor.violationCount();
    out.flaps = engine.portEvents() != nullptr
                    ? engine.portEvents()->linkFlaps()
                    : 0;
    out.ports = cluster.portEventSummary();
    out.storm = storm.stats();
    for (std::size_t k = 0; k < pairs; k += 8)
        out.notifierWindows +=
            cluster.node(2 * k + 1).driver().stats().notifierWindows;
    for (std::size_t k = 0; k < pairs; ++k)
        out.completions += reqCq[k]->totalCompletions();
    out.report = monitor.report();
    return out;
}

} // namespace

TEST(ChaosPortEvents, CombinedStormSoakIsCleanAndGolden)
{
    const StormSoakResult r = runCombinedStormSoak(4046, 1);
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.violations, 0u) << r.report;

    // Every layer of the storm actually fired.
    EXPECT_GT(r.flaps, 0u);
    EXPECT_GT(r.ports.portDownEvents, 0u);
    EXPECT_GT(r.ports.portUpEvents, 0u);
    EXPECT_GT(r.ports.gateDrops, 0u);
    EXPECT_GT(r.ports.qpsEnteredError, 0u);
    EXPECT_GT(r.ports.qpsRecovered, 0u);
    EXPECT_GT(r.ports.cmRearmsSent, 0u);
    EXPECT_GT(r.storm.ticks, 0u);
    EXPECT_GT(r.storm.downTicks, 0u);
    EXPECT_GT(r.storm.pagesInvalidated, 0u);
    EXPECT_GT(r.storm.capacityClamps, 0u);

    // Bit-identical replay, pinned to a recorded golden: any change to
    // the port-event schedule derivation, the CM handshake or the storm
    // cadence is loud here.
    const StormSoakResult again = runCombinedStormSoak(4046, 1);
    EXPECT_EQ(r.hash, again.hash);
    EXPECT_EQ(r.hash, kCombinedStormGolden);
    EXPECT_NE(runCombinedStormSoak(4047, 1).hash, r.hash);
}

TEST(ChaosPortEvents, CombinedStormSoakIsJobInvariant)
{
    // The jobs 1/2/4/8 differential: install() runs the port-event
    // chains per island, so a fixed seed must give
    // bit-identical port events — and therefore traces, verdicts and
    // recovery stats — at any worker count.
    const StormSoakResult seq = runCombinedStormSoak(4046, 1);
    EXPECT_TRUE(seq.drained);
    EXPECT_EQ(seq.violations, 0u) << seq.report;

    for (unsigned jobs : {2u, 4u, 8u}) {
        const StormSoakResult par = runCombinedStormSoak(4046, jobs);
        EXPECT_TRUE(par.drained) << "jobs=" << jobs;
        EXPECT_EQ(par.hash, seq.hash) << "jobs=" << jobs;
        EXPECT_EQ(par.violations, seq.violations)
            << "jobs=" << jobs << "\n" << par.report;
        EXPECT_EQ(par.flaps, seq.flaps) << "jobs=" << jobs;
        EXPECT_EQ(par.ports.portDownEvents, seq.ports.portDownEvents)
            << "jobs=" << jobs;
        EXPECT_EQ(par.ports.qpsRecovered, seq.ports.qpsRecovered)
            << "jobs=" << jobs;
        EXPECT_EQ(par.storm.pagesInvalidated, seq.storm.pagesInvalidated)
            << "jobs=" << jobs;
        EXPECT_EQ(par.completions, seq.completions) << "jobs=" << jobs;
    }
}

TEST(OdpPageTable, StormSoakStateMachineCleanAndJobInvariant)
{
    // The invalidation-storm-during-flood differential: storms drive the
    // real MMU-notifier path — invalidate_start flushes translations
    // immediately, windows doom in-flight faults (FaultingInvalidated),
    // and bursts inside open windows extend them. The oracle must stay
    // clean and the notifier windows must be bit-identical between
    // jobs=1 and jobs=4.
    const StormSoakResult seq = runCombinedStormSoak(4046, 1);
    EXPECT_TRUE(seq.drained);
    EXPECT_EQ(seq.violations, 0u) << seq.report;
    EXPECT_GT(seq.storm.pagesInvalidated, 0u);
    EXPECT_GT(seq.notifierWindows, 0u);

    const StormSoakResult par = runCombinedStormSoak(4046, 4);
    EXPECT_TRUE(par.drained);
    EXPECT_EQ(par.violations, 0u) << par.report;
    EXPECT_EQ(par.hash, seq.hash);
    EXPECT_EQ(par.notifierWindows, seq.notifierWindows);
    EXPECT_EQ(par.completions, seq.completions);
}
