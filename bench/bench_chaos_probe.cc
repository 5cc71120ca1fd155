/**
 * @file
 * Chaos probe: one randomized RC workload per fault class, with the
 * invariant oracle riding along.
 *
 * This is the robustness companion to the paper benches: instead of
 * measuring a pitfall, it measures what each fault class costs the RC
 * transport (completion-time inflation over the fault-free baseline) and
 * asserts — via chaos::InvariantMonitor — that correctness held while it
 * happened. A non-zero violations column is a transport bug, not a
 * measurement.
 */

#include "suite.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hh"
#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "cluster/topology.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

constexpr std::size_t opsPerTrial = 80;
constexpr std::uint64_t bufBytes = 64 * 1024;

chaos::ChaosConfig
configFor(const std::string& fault, std::uint64_t seed)
{
    chaos::ChaosConfig cfg;
    cfg.seed = seed;
    if (fault == "drop") {
        cfg.dropRate = 0.05;
    } else if (fault == "dup") {
        cfg.dupRate = 0.3;
    } else if (fault == "reorder") {
        cfg.reorderRate = 0.3;
        cfg.reorderMaxHold = Time::us(300);
    } else if (fault == "corrupt") {
        cfg.corruptRate = 0.05;  // fails ICRC, acts as loss
    } else if (fault == "delay") {
        cfg.delayRate = 1.0;
        cfg.delayMax = Time::us(200);
    } else if (fault == "flap") {
        cfg.flapPeriod = Time::ms(2);
        cfg.flapDown = Time::us(100);
    } else if (fault == "forged_nak") {
        cfg.forgedNakRate = 0.05;
    } else if (fault == "storm") {
        // Wire untouched; the fault is ODP-side (set up below).
    }
    return cfg;
}

exp::Metrics
runProbe(const std::string& fault, std::uint64_t seed)
{
    const auto wallStart = std::chrono::steady_clock::now();
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, seed);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);

    const auto src = a.alloc(bufBytes);
    const auto dst = b.alloc(bufBytes);
    a.touch(src, bufBytes);
    b.touch(dst, bufBytes);
    auto& amr = a.registerMemory(src, bufBytes, verbs::AccessFlags::odp());
    auto& bmr = b.registerMemory(dst, bufBytes, verbs::AccessFlags::odp());

    chaos::ChaosEngine engine(cluster.events(), configFor(fault, seed));
    engine.install(cluster.fabric());
    if (fault == "storm")
        engine.startInvalidationStorm(b.driver(), bmr.table(), dst,
                                      bufBytes, Time::us(100),
                                      /*pages_per_burst=*/2,
                                      /*bursts=*/100);

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());
    monitor.watch(b.rnic(), bqp.context());

    for (std::size_t i = 0; i < opsPerTrial; ++i)
        bqp.postRecv(dst + 32 * 1024 + (i % 64) * 256, bmr.lkey(), 256,
                     1000 + i);

    Rng& rng = cluster.rng();
    const Time start = cluster.now();
    for (std::size_t i = 0; i < opsPerTrial; ++i) {
        const std::uint64_t off = (i % 64) * 256;
        const auto len =
            static_cast<std::uint32_t>(rng.uniformInt(16, 256));
        switch (rng.uniformInt(0, 2)) {
          case 0:
            aqp.postWrite(src + off, amr.lkey(), dst + off, bmr.rkey(),
                          len, i + 1);
            break;
          case 1:
            aqp.postRead(src + 16 * 1024 + off, amr.lkey(),
                         dst + 16 * 1024 + off, bmr.rkey(), len, i + 1);
            break;
          default:
            aqp.postSend(src + 32 * 1024 + off, amr.lkey(), len, i + 1);
            break;
        }
        cluster.advance(rng.uniformTime(Time::us(1), Time::us(20)));
    }
    const bool completed = cluster.runUntil(
        [&] {
            return aqp.outstanding() == 0 &&
                   acq.totalCompletions() >= opsPerTrial;
        },
        cluster.now() + Time::sec(600));
    monitor.finalCheck();

    const double wallNs =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() -
                                wallStart)
                                .count());
    return exp::Metrics{}
        .set("total_s", (cluster.now() - start).toSec())
        .set("ns_per_packet",
             wallNs / static_cast<double>(
                          std::max<std::uint64_t>(
                              1, monitor.packetsObserved())))
        .set("completed", completed)
        .set("violations",
             static_cast<double>(monitor.violationCount()))
        .set("retransmissions",
             static_cast<double>(aqp.stats().retransmissions))
        .set("injected",
             static_cast<double>(cluster.fabric().totalInjected()))
        .set("dropped",
             static_cast<double>(cluster.fabric().totalDropped()));
}

/**
 * Topology probe: ring traffic of one verb class (RC atomics, UD
 * datagrams or UC writes) over an N-node mesh, under one fault class —
 * including per-link flap schedules (chaos::Topology) and forged NAKs
 * rewound into coalesced ACK ranges. The oracle's transport-specific
 * invariant families (A1/A2, U1/U3, V1-V3) audit every flow via
 * watchAll().
 *
 * `jobs` = 0 runs the single-queue kernel; >= 1 runs island mode on
 * that many workers (chaos pipeline forked per island, one topology
 * schedule replica each) — the chaos-under-parallelism configuration
 * whose verdicts must match the sequential ones bit-for-bit.
 */
exp::Metrics
runTopoProbe(const std::string& fault, const std::string& verb,
             std::size_t nodes, std::uint64_t seed, unsigned jobs = 0)
{
    const auto wallStart = std::chrono::steady_clock::now();
    constexpr std::size_t opsPerLink = 30;
    constexpr std::uint64_t meshBufBytes = 16 * 1024;

    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), nodes, seed,
                    net::LinkConfig{}, options);

    chaos::ChaosConfig cfg;
    cfg.seed = seed;
    if (fault == "dup") {
        cfg.dupRate = 0.2;
    } else if (fault == "drop") {
        cfg.dropRate = 0.03;
    } else if (fault == "nak_coalesce") {
        cfg.forgedNakRate = 0.02;
        cfg.forgedNakMaxRewind = 8;
        cfg.delayRate = 0.2;
    }
    chaos::ChaosEngine engine(cluster.events(), cfg);
    chaos::Topology topo(nodes, seed);
    if (fault == "mesh_flap") {
        topo.setDefaultPlan({Time::us(500), Time::us(100)});
        engine.attachTopology(topo);
    }
    engine.install(cluster.fabric());
    chaos::InvariantMonitor monitor(cluster.fabric());

    // One flow per ring link i -> (i+1) % nodes.
    std::vector<verbs::QueuePair> req(nodes), resp(nodes);
    std::vector<verbs::CompletionQueue*> cqs(nodes);
    std::vector<std::uint64_t> buf(nodes);
    std::vector<verbs::MemoryRegion*> mr(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        cqs[i] = &cluster.node(i).createCq();
        buf[i] = cluster.node(i).alloc(meshBufBytes);
        cluster.node(i).touch(buf[i], meshBufBytes);
        mr[i] = &cluster.node(i).registerMemory(
            buf[i], meshBufBytes, verbs::AccessFlags::pinned());
    }
    verbs::QpConfig qpCfg;
    if (verb == "ud")
        qpCfg.transport = verbs::Transport::Ud;
    else if (verb == "uc")
        qpCfg.transport = verbs::Transport::Uc;
    for (std::size_t i = 0; i < nodes; ++i) {
        const std::size_t j = (i + 1) % nodes;
        if (verb == "ud") {
            req[i] = cluster.node(i).createQp(*cqs[i], qpCfg);
            req[i].connect(0, 0);
        } else {
            auto [qa, qb] = cluster.connectRc(cluster.node(i), *cqs[i],
                                              cluster.node(j), *cqs[j],
                                              qpCfg);
            req[i] = qa;
            resp[i] = qb;  // responder-side QP living on node j
        }
    }
    // UD needs one addressable responder QP per node (its own RECVs).
    std::vector<verbs::QueuePair> udRx(nodes);
    if (verb == "ud") {
        for (std::size_t i = 0; i < nodes; ++i) {
            udRx[i] = cluster.node(i).createQp(*cqs[i], qpCfg);
            udRx[i].connect(0, 0);
        }
    }
    monitor.watchAll(cluster);

    for (std::size_t i = 0; i < nodes; ++i) {
        for (std::size_t k = 0; k < opsPerLink; ++k) {
            const std::uint64_t slot = 8192 + (k % 16) * 256;
            if (verb == "ud") {
                udRx[i].postRecv(buf[i] + slot, mr[i]->lkey(), 256,
                                 1000 + k);
            } else if (verb == "uc") {
                resp[i].postRecv(buf[(i + 1) % nodes] + slot,
                                 mr[(i + 1) % nodes]->lkey(), 256,
                                 1000 + k);
            }
        }
    }

    Rng& rng = cluster.rng();
    const Time start = cluster.now();
    for (std::size_t k = 0; k < opsPerLink; ++k) {
        for (std::size_t i = 0; i < nodes; ++i) {
            const std::size_t j = (i + 1) % nodes;
            const std::uint64_t off = (k % 16) * 256;
            if (verb == "atomic") {
                if (k % 2 == 0) {
                    req[i].postFetchAdd(buf[i] + 1024 + off,
                                        mr[i]->lkey(), buf[j],
                                        mr[j]->rkey(), 1, k + 1);
                } else {
                    req[i].postCompSwap(buf[i] + 1024 + off,
                                        mr[i]->lkey(), buf[j],
                                        mr[j]->rkey(), 0, 1, k + 1);
                }
            } else if (verb == "ud") {
                req[i].postSendUd(
                    {cluster.node(j).lid(), udRx[j].qpn()},
                    buf[i] + 2048 + off, mr[i]->lkey(), 32, k + 1);
            } else {
                req[i].postWrite(buf[i] + off, mr[i]->lkey(),
                                 buf[j] + 4096 + off, mr[j]->rkey(), 128,
                                 k + 1);
            }
        }
        cluster.advance(rng.uniformTime(Time::us(5), Time::us(40)));
    }
    const bool completed = cluster.runUntil(
        [&] {
            for (std::size_t i = 0; i < nodes; ++i)
                if (req[i].outstanding() != 0)
                    return false;
            return true;
        },
        cluster.now() + Time::sec(600));
    cluster.advance(Time::ms(5));  // land stray one-way deliveries
    monitor.finalCheck();

    const double wallNs =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() -
                                wallStart)
                                .count());
    return exp::Metrics{}
        .set("total_s", (cluster.now() - start).toSec())
        .set("ns_per_packet",
             wallNs / static_cast<double>(
                          std::max<std::uint64_t>(
                              1, monitor.packetsObserved())))
        .set("completed", completed)
        .set("violations",
             static_cast<double>(monitor.violationCount()))
        .set("flaps", static_cast<double>(engine.flaps()))
        .set("dropped",
             static_cast<double>(cluster.fabric().totalDropped()));
}

} // namespace

void
registerChaosProbe(exp::Registry& registry)
{
    registry.add(
        {"chaos_probe",
         "fault-class sweep under the invariant oracle",
         [](const exp::RunContext& ctx) {
             const std::size_t trials = ctx.trials(5, 2);

             exp::Sweep sweep;
             sweep.axis("fault",
                        std::vector<std::string>{
                            "none", "delay", "reorder", "dup", "drop",
                            "corrupt", "flap", "forged_nak", "storm"});

             auto result = ctx.runner("chaos_probe").run(
                 sweep, trials,
                 [](const exp::Cell& cell, std::uint64_t seed) {
                     return runProbe(cell.str("fault"), seed);
                 });

             auto sink = ctx.sink("chaos_probe");
             auto columns = std::vector<exp::MetricColumn>{
                 exp::col("total_s", exp::Stat::Mean, 4, "total_s"),
                 exp::col("ns_per_packet", exp::Stat::Mean, 1, "ns/pkt"),
                 exp::col("retransmissions", exp::Stat::Mean, 1,
                          "rexmits"),
                 exp::col("dropped", exp::Stat::Mean, 1, "dropped"),
                 exp::col("injected", exp::Stat::Mean, 1, "injected"),
                 exp::col("completed", exp::Stat::PctMean, 0,
                          "completed%"),
                 exp::col("violations", exp::Stat::Sum, 0,
                          "violations")};
             sink.table(
                 "Chaos probe: RC workload per fault class, oracle "
                 "attached\n   (80 mixed READ/WRITE/SEND ops on ODP "
                 "regions; violations must be 0)",
                 result, columns);
             sink.note(
                 "Each fault class costs the transport differently "
                 "(drops pay vendor-floored\ntimeouts, reordering pays "
                 "go-back-N replays, delay is nearly free); the\n"
                 "violations column is the invariant oracle's verdict "
                 "and must stay 0.");
         }});

    registry.add(
        {"chaos_topology",
         "fault x verb x mesh-size sweep under the invariant oracle",
         [](const exp::RunContext& ctx) {
             const std::size_t trials = ctx.trials(3, 2);

             exp::Sweep sweep;
             sweep.axis("fault",
                        std::vector<std::string>{"none", "dup", "drop",
                                                 "mesh_flap",
                                                 "nak_coalesce"});
             sweep.axis("verb", std::vector<std::string>{"atomic", "ud",
                                                         "uc"});
             sweep.axis("nodes", std::vector<double>{2, 4}, 0);

             auto result = ctx.runner("chaos_topology")
                               .run(sweep, trials,
                                    [](const exp::Cell& cell,
                                       std::uint64_t seed) {
                                        return runTopoProbe(
                                            cell.str("fault"),
                                            cell.str("verb"),
                                            static_cast<std::size_t>(
                                                cell.num("nodes")),
                                            seed);
                                    });

             auto sink = ctx.sink("chaos_topology");
             auto columns = std::vector<exp::MetricColumn>{
                 exp::col("total_s", exp::Stat::Mean, 4, "total_s"),
                 exp::col("ns_per_packet", exp::Stat::Mean, 1, "ns/pkt"),
                 exp::col("dropped", exp::Stat::Mean, 1, "dropped"),
                 exp::col("flaps", exp::Stat::Mean, 1, "flaps"),
                 exp::col("completed", exp::Stat::PctMean, 0,
                          "completed%"),
                 exp::col("violations", exp::Stat::Sum, 0,
                          "violations")};
             sink.table(
                 "Chaos topology probe: one verb class per ring link of "
                 "an N-node mesh\n   (RC atomics / UD datagrams / UC "
                 "writes; per-link flap schedules; violations\n   must "
                 "be 0)",
                 result, columns);
             sink.note(
                 "Exercises the transport-specific invariant families: "
                 "exactly-once atomics\nunder duplication (A1/A2), UD "
                 "drop accounting (U3) and fire-and-forget\ncontracts "
                 "(U1/V1/V2/V3) under per-link flap schedules and "
                 "forged NAKs\nrewound into coalesced ACK ranges.");

             // Chaos under parallelism: the same probe on a 64-node
             // mesh driven by the sharded kernel. Every cell runs the
             // SAME seed twice — jobs = 1 (the inline windowed
             // reference) and jobs = N on the ready-queue scheduler —
             // and seq_match asserts that everything observable about
             // the simulation
             // (virtual duration, drops, flap windows, oracle verdict,
             // completion) is bit-identical; only wall clock may move.
             exp::Sweep sharded;
             sharded.axis("fault", std::vector<std::string>{
                                       "dup", "mesh_flap"});
             sharded.axis("verb", std::vector<std::string>{"atomic"});
             sharded.axis("nodes", std::vector<double>{64}, 0);
             // jobs = 1 is the sequential reference cell the regression
             // checker derives speedup_vs_seq from.
             sharded.axis("jobs", std::vector<double>{1, 2, 4}, 0);

             auto sresult = ctx.runner("chaos_topology_sharded")
                                .run(sharded, trials,
                                     [](const exp::Cell& cell,
                                        std::uint64_t seed) {
                 const auto nodes =
                     static_cast<std::size_t>(cell.num("nodes"));
                 const auto jobs =
                     static_cast<unsigned>(cell.num("jobs"));
                 const exp::Metrics seq = runTopoProbe(
                     cell.str("fault"), cell.str("verb"), nodes, seed,
                     1);
                 exp::Metrics par = runTopoProbe(
                     cell.str("fault"), cell.str("verb"), nodes, seed,
                     jobs);
                 bool match = true;
                 for (const char* m : {"total_s", "dropped", "flaps",
                                       "violations", "completed"})
                     match = match && seq.get(m) == par.get(m);
                 par.set("seq_match", match);
                 return par;
             });

             auto scolumns = columns;
             scolumns.push_back(exp::col("seq_match", exp::Stat::PctMean,
                                         0, "seq_match%"));
             auto ssink = ctx.sink("chaos_topology_sharded");
             ssink.table(
                 "Chaos topology probe, island mode: 64-node mesh on "
                 "the sharded kernel\n   (each cell replays its seed at "
                 "jobs=1 and jobs=N; seq_match must be 100)",
                 sresult, scolumns);
             ssink.note(
                 "One island per node, chaos pipeline forked per "
                 "island (disjoint RNG streams,\nper-island flap-"
                 "schedule replicas). seq_match compares jobs=N "
                 "against the inline jobs=1\nreference on the same "
                 "seed: virtual duration, drops, flap windows, oracle\n"
                 "verdict and completion must all be bit-identical.");
         }});
}

} // namespace bench
} // namespace ibsim
