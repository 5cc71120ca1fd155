/**
 * @file
 * Zero-overhead datapath tests.
 *
 * The flat routing/QP/MR tables and the lazy trace macro exist purely for
 * speed, so these tests pin down the two things a perf refactor must not
 * change: semantics (attach/detach/destroy behaviour, drop counting,
 * lookup results) and simulated-time behaviour (fixed-seed traceHash
 * goldens recorded before the refactor). The formatter-count tests
 * additionally assert the "zero work when tracing is off" contract:
 * Packet::str() never runs and no trace line is formatted on a
 * trace-disabled hot path — the unconditional pkt.str() calls that used
 * to sit in Fabric's drop paths are what they guard against coming back.
 */

#include <gtest/gtest.h>

#include <string>

#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "net/fabric.hh"
#include "net/packet.hh"
#include "pitfall/microbench.hh"
#include "rnic/flat_table.hh"
#include "simcore/log.hh"

using namespace ibsim;

namespace {

// ---------------------------------------------------------------- FlatKeyMap

TEST(FlatKeyMap, InsertFindErase)
{
    rnic::FlatKeyMap<int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(42), nullptr);

    map.insert(42, 7);
    map.insert(100001, 8);
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 7);
    ASSERT_NE(map.find(100001), nullptr);
    EXPECT_EQ(*map.find(100001), 8);

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(100001), nullptr);  // probe chain survives erase
}

TEST(FlatKeyMap, GrowthKeepsAllEntries)
{
    rnic::FlatKeyMap<std::uint32_t> map;
    const std::size_t initial = map.capacity();
    // Node-style keys (lid * 100000 + n) to mimic the real distribution.
    for (std::uint32_t i = 0; i < 200; ++i)
        map.insert(100000 + i, i);
    EXPECT_GT(map.capacity(), initial);
    EXPECT_EQ(map.size(), 200u);
    for (std::uint32_t i = 0; i < 200; ++i) {
        ASSERT_NE(map.find(100000 + i), nullptr) << i;
        EXPECT_EQ(*map.find(100000 + i), i);
    }
}

TEST(FlatKeyMap, TombstoneSlotsAreReused)
{
    rnic::FlatKeyMap<int> map;
    for (std::uint32_t i = 1; i <= 8; ++i)
        map.insert(i, static_cast<int>(i));
    for (std::uint32_t i = 1; i <= 8; ++i)
        EXPECT_TRUE(map.erase(i));
    // Erase+insert churn must not grow the table without bound:
    // tombstones are reused in place or reclaimed by an equal-size
    // rehash, never answered with endless doubling.
    for (int round = 0; round < 500; ++round) {
        for (std::uint32_t i = 1; i <= 8; ++i)
            map.insert(1000 + round * 8 + i, round);
        for (std::uint32_t i = 1; i <= 8; ++i)
            EXPECT_TRUE(map.erase(1000 + round * 8 + i));
    }
    EXPECT_LE(map.capacity(), 64u);
    EXPECT_EQ(map.size(), 0u);
}

// ------------------------------------------------------- Fabric flat routing

struct CountingPort : net::PortHandler
{
    std::uint64_t received = 0;
    void receive(const net::Packet&) override { ++received; }
};

net::Packet
packetTo(std::uint16_t dst_lid, std::uint32_t dst_qpn = 100)
{
    net::Packet pkt;
    pkt.op = net::Opcode::Send;
    pkt.srcLid = 1;
    pkt.dstLid = dst_lid;
    pkt.srcQpn = 100;
    pkt.dstQpn = dst_qpn;
    pkt.length = 0;
    return pkt;
}

TEST(FabricFlatTable, AttachDetachReattach)
{
    EventQueue events;
    net::Fabric fabric(events);
    CountingPort port;

    fabric.attach(7, port);
    fabric.send(packetTo(7));
    events.run();
    EXPECT_EQ(port.received, 1u);
    EXPECT_EQ(fabric.totalDropped(), 0u);

    // Detached: packets to the LID vanish (the paper's port-down model).
    fabric.detach(7);
    fabric.send(packetTo(7));
    events.run();
    EXPECT_EQ(port.received, 1u);
    EXPECT_EQ(fabric.totalDropped(), 1u);

    // The slot is reusable after detach.
    fabric.attach(7, port);
    fabric.send(packetTo(7));
    events.run();
    EXPECT_EQ(port.received, 2u);
    EXPECT_EQ(fabric.totalSent(), 3u);
    EXPECT_EQ(fabric.totalDelivered(), 2u);
}

TEST(FabricFlatTable, UnknownLidCountsAsDrop)
{
    EventQueue events;
    net::Fabric fabric(events);
    CountingPort port;
    fabric.attach(2, port);

    fabric.send(packetTo(3));     // inside the table, no handler
    fabric.send(packetTo(4095));  // far beyond: table must grow, not crash
    events.run();
    EXPECT_EQ(port.received, 0u);
    EXPECT_EQ(fabric.totalDropped(), 2u);

    // Routing still works for high LIDs after the growth.
    CountingPort high;
    fabric.attach(4094, high);
    fabric.send(packetTo(4094));
    events.run();
    EXPECT_EQ(high.received, 1u);
}

// ----------------------------------------------------------- RNIC flat tables

TEST(RnicFlatTable, DestroyedQpCountsUnknown)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 5);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);

    const std::uint32_t bqpn = bqp.context().qpn;
    EXPECT_NE(b.rnic().findQp(bqpn), nullptr);
    EXPECT_EQ(b.rnic().allQps().size(), 1u);

    b.rnic().destroyQp(bqpn);
    EXPECT_EQ(b.rnic().findQp(bqpn), nullptr);
    EXPECT_TRUE(b.rnic().allQps().empty());

    // Traffic still addressed to the destroyed QPN is dropped and counted,
    // like a real HCA discarding packets to a destroyed QP.
    cluster.fabric().send(packetTo(b.rnic().lid(), bqpn));
    cluster.advance(Time::ms(1));
    EXPECT_EQ(b.rnic().stats().packetsToUnknownQp, 1u);
}

TEST(RnicFlatTable, OutOfRangeQpnsCountUnknown)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 5);
    Node& b = cluster.node(1);
    auto& acq = cluster.node(0).createCq();
    auto& bcq = b.createCq();
    cluster.connectRc(cluster.node(0), acq, b, bcq);

    cluster.fabric().send(packetTo(b.rnic().lid(), 5));       // below firstQpn
    cluster.fabric().send(packetTo(b.rnic().lid(), 999999));  // beyond table
    cluster.advance(Time::ms(1));
    EXPECT_EQ(b.rnic().stats().packetsToUnknownQp, 2u);
}

TEST(RnicFlatTable, MruCacheInvalidatedOnDeregister)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 5);
    Node& node = cluster.node(0);
    const std::uint64_t addr1 = node.alloc(4096);
    const std::uint64_t addr2 = node.alloc(4096);
    auto& mr1 =
        node.registerMemory(addr1, 4096, verbs::AccessFlags::pinned());
    auto& mr2 =
        node.registerMemory(addr2, 4096, verbs::AccessFlags::pinned());
    const std::uint32_t key1 = mr1.rkey();
    const std::uint32_t key2 = mr2.rkey();

    // Repeated hits (the second one is served by the MRU cache).
    EXPECT_EQ(node.rnic().findMr(key1), &mr1);
    EXPECT_EQ(node.rnic().findMr(key1), &mr1);
    EXPECT_EQ(node.rnic().findMr(key2), &mr2);

    // Deregistering the MRU-cached region must not leave a stale hit.
    node.deregisterMemory(mr2);
    EXPECT_EQ(node.rnic().findMr(key2), nullptr);
    EXPECT_EQ(node.rnic().findMr(key1), &mr1);
    node.deregisterMemory(mr1);
    EXPECT_EQ(node.rnic().findMr(key1), nullptr);
}

// --------------------------------------------------------------- lazy tracing

TEST(LazyTrace, MacroSkipsExpressionWhenDisabled)
{
    log::disableAll();
    static log::Component comp("lazy_trace_test");
    int evaluations = 0;
    const auto format = [&evaluations] {
        ++evaluations;
        return std::string("formatted");
    };

    IBSIM_TRACE(comp, Time(), format());
    EXPECT_EQ(evaluations, 0);  // disabled: expression never evaluated

    const std::uint64_t linesBefore = log::linesEmitted();
    log::enable("lazy_trace_test");
    EXPECT_TRUE(comp.enabled());
    IBSIM_TRACE(comp, Time(), format());
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(log::linesEmitted(), linesBefore + 1);

    log::disableAll();
    IBSIM_TRACE(comp, Time(), format());
    EXPECT_EQ(evaluations, 1);
}

TEST(LazyTrace, DisabledHotPathFormatsNothing)
{
    log::disableAll();
    pitfall::MicroBenchConfig config;
    config.numOps = 32;
    config.numQps = 2;
    config.size = 100;
    config.interval = Time::us(50);
    config.odpMode = pitfall::OdpMode::ServerSide;  // faults + damming path
    config.capture = false;
    config.waitLimit = Time::sec(600);
    pitfall::MicroBenchmark bench(config,
                                  rnic::DeviceProfile::connectX4(), 99);

    const std::uint64_t strBefore = net::Packet::strCalls();
    const std::uint64_t linesBefore = log::linesEmitted();
    bench.run();
    // The whole point of the lazy-trace refactor: a trace-disabled run
    // formats zero packet strings and emits zero lines.
    EXPECT_EQ(net::Packet::strCalls(), strBefore);
    EXPECT_EQ(log::linesEmitted(), linesBefore);
}

TEST(LazyTrace, FabricDropPathIsLazy)
{
    EventQueue events;
    net::Fabric fabric(events);

    // Unknown-LID drop with tracing off: the old code formatted
    // pkt.str() unconditionally here; now it must not.
    log::disableAll();
    const std::uint64_t strBefore = net::Packet::strCalls();
    fabric.send(packetTo(9));
    events.run();
    EXPECT_EQ(fabric.totalDropped(), 1u);
    EXPECT_EQ(net::Packet::strCalls(), strBefore);

    // Same drop with the component traced: the string is built again.
    log::enable("fabric");
    fabric.send(packetTo(9));
    events.run();
    EXPECT_GT(net::Packet::strCalls(), strBefore);
    log::disableAll();
}

// ------------------------------------------------- fixed-seed trace goldens

/**
 * traceHash of a microbench scenario with the invariant monitor watching
 * every QP from the start. The expected values below were recorded on the
 * pre-refactor tree (std::map tables, eager tracing): the flat tables and
 * lazy tracing must not move a single packet in simulated time.
 */
std::uint64_t
scenarioHash(pitfall::OdpMode mode, std::size_t ops, std::size_t qps,
             std::uint64_t seed)
{
    pitfall::MicroBenchConfig config;
    config.numOps = ops;
    config.numQps = qps;
    config.size = 100;
    config.interval = Time::us(50);
    config.odpMode = mode;
    config.capture = false;
    config.waitLimit = Time::sec(600);
    pitfall::MicroBenchmark bench(config,
                                  rnic::DeviceProfile::connectX4(), seed);
    chaos::InvariantMonitor monitor(bench.cluster().fabric());
    bench.setQpReadyHook([&] {
        for (auto* qp : bench.client().rnic().allQps())
            monitor.watch(bench.client().rnic(), *qp);
        for (auto* qp : bench.server().rnic().allQps())
            monitor.watch(bench.server().rnic(), *qp);
    });
    bench.run();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
    return monitor.traceHash();
}

TEST(TraceHashGolden, DammingScenarioUnchangedByRefactor)
{
    EXPECT_EQ(scenarioHash(pitfall::OdpMode::ServerSide, 64, 4, 12345),
              0xfec1c2a0d1bb3d21ull);
}

TEST(TraceHashGolden, FloodScenarioUnchangedByRefactor)
{
    EXPECT_EQ(scenarioHash(pitfall::OdpMode::ClientSide, 256, 16, 98765),
              0x60b30a5b94b311a1ull);
}

// -------------------------------------------------- watchAll / late attach

TEST(WatchAll, CoversEveryQpInTheCluster)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 4, 21);
    std::vector<verbs::QueuePair> qps;
    std::vector<verbs::CompletionQueue*> cqs;
    for (std::size_t p = 0; p < 2; ++p) {
        Node& a = cluster.node(2 * p);
        Node& b = cluster.node(2 * p + 1);
        auto& acq = a.createCq();
        auto& bcq = b.createCq();
        cqs.push_back(&acq);
        for (int i = 0; i < 3; ++i) {
            auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
            qps.push_back(aqp);
        }
    }

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watchAll(cluster);

    // One READ per client QP; a fully watched drain must come out clean.
    for (std::size_t p = 0; p < 2; ++p) {
        Node& a = cluster.node(2 * p);
        Node& b = cluster.node(2 * p + 1);
        const std::uint64_t src = b.alloc(4096);
        const std::uint64_t dst = a.alloc(4096);
        auto& smr =
            b.registerMemory(src, 4096, verbs::AccessFlags::pinned());
        auto& cmr =
            a.registerMemory(dst, 4096, verbs::AccessFlags::pinned());
        for (int i = 0; i < 3; ++i) {
            qps[p * 3 + i].postRead(dst, cmr.lkey(), src, smr.rkey(), 100,
                                    1);
        }
    }
    ASSERT_TRUE(cluster.runUntil(
        [&] {
            std::uint64_t done = 0;
            for (auto* cq : cqs)
                done += cq->totalCompletions();
            return done >= 6;
        },
        Time::sec(10)));
    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
    EXPECT_GT(monitor.packetsObserved(), 0u);
}

TEST(WatchAll, LateAttachMidRunStaysClean)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 33);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
    const std::uint64_t src = b.alloc(4096);
    const std::uint64_t dst = a.alloc(4096);
    auto& smr = b.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& cmr = a.registerMemory(dst, 4096, verbs::AccessFlags::odp());

    // Wave 1 runs entirely unobserved.
    for (std::uint64_t wr = 1; wr <= 4; ++wr)
        aqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, wr);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return acq.totalCompletions() >= 4; }, Time::sec(10)));

    // Attach mid-run: nextPsn is far from 0 and history is unknown.
    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watchAll(cluster);

    // Wave 2 (fresh wrIds) is fully observed and must satisfy every
    // invariant; wave-1 residue must not be misreported.
    for (std::uint64_t wr = 10; wr <= 13; ++wr)
        aqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, wr);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return acq.totalCompletions() >= 8; }, Time::sec(10)));
    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
    EXPECT_GT(monitor.packetsObserved(), 0u);
}

TEST(WatchAll, LateAttachIgnoresInFlightWave)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 44);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
    const std::uint64_t src = b.alloc(4096);
    const std::uint64_t dst = a.alloc(4096);
    auto& smr = b.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& cmr = a.registerMemory(dst, 4096, verbs::AccessFlags::pinned());

    // Posted but not yet completed when the monitor attaches: their
    // retransmissions, responses and completions are all pre-attach
    // artifacts and must be excluded rather than flagged.
    for (std::uint64_t wr = 1; wr <= 4; ++wr)
        aqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, wr);

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watchAll(cluster);

    ASSERT_TRUE(cluster.runUntil(
        [&] { return acq.totalCompletions() >= 4; }, Time::sec(10)));
    monitor.finalCheck();
    EXPECT_TRUE(monitor.clean()) << monitor.report();
}

} // namespace
