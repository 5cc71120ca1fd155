/**
 * @file
 * Flood-scale capacity of the simulator datapath itself.
 *
 * The paper's packet-flood pitfall (Sec. V) only shows its teeth at
 * scale — hundreds of QPs blindly retransmitting — and ROADMAP's north
 * star is running such scenarios "as fast as the hardware allows". This
 * bench drives the client-side-ODP flood through thousands of QPs spread
 * over many nodes and reports *wall-clock* ns per simulated packet: the
 * end-to-end cost of the per-packet wire path (fabric routing tables,
 * RNIC steering, trace gating, event kernel). Like simcore_micro it is
 * the one kind of bench whose numbers legitimately vary across machines;
 * the simulated packet counts per cell are seed-deterministic.
 *
 * The `oracle` axis additionally audits the run with the chaos invariant
 * monitor attached mid-run via InvariantMonitor::watchAll() — the
 * late-attach path that lets long-running services be checked without
 * restarting them. Its cells must stay at violations = 0.
 */

#include "suite.hh"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "pitfall/microbench.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

struct CapacityResult
{
    std::uint64_t packets = 0;
    double wallNs = 0;
    std::uint64_t violations = 0;
    bool completed = false;
    std::uint64_t traceHash = 0;
    /** Island-mode observability (zero in single-queue runs). */
    std::uint64_t barriers = 0;
    std::uint64_t channelParcels = 0;
    std::uint64_t islandEventsMax = 0;
    std::uint64_t islandEventsMin = 0;
    std::uint64_t steals = 0;
    std::uint64_t maxClockLagNs = 0;
    double busyMean = 0;
    double busyMin = 0;
    std::uint64_t roundsSkipped = 0;
    std::uint64_t readyDepth = 0;
};

/**
 * One capacity trial: `qps` QPs split over `pairs` client/server node
 * pairs, every QP issuing 100-B READs into its own client-side-ODP page
 * (each response DMA faults, provoking the flood machinery). Two posting
 * waves; with `audit` the invariant monitor late-attaches between them,
 * so wave 1 is pre-attach history and wave 2 is fully checked.
 *
 * `jobs` = 0 runs the historical single-queue kernel; >= 1 runs island
 * mode (one island per node) with that many workers — jobs = 1 being the
 * windowed algorithm inline, the "sequential" reference every jobs > 1
 * run must match bit-for-bit. `client_planes` > 1 splits every client
 * machine into that many planes (Cluster::addNodePlanes) and spreads its
 * QP groups round-robin across them — the per-QP-group island split that
 * stops one hot RNIC from serializing a whole window.
 */
CapacityResult
runCapacityTrial(std::size_t qps, std::size_t pairs,
                 std::size_t ops_per_wave, bool audit, std::uint64_t seed,
                 unsigned jobs = 0, unsigned client_planes = 1)
{
    const std::size_t qpsPerPair = qps / pairs;
    constexpr std::uint64_t bytesPerQp = 4096;  // one ODP page per QP

    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 0, seed,
                    net::LinkConfig{}, options);
    struct PlaneRegion
    {
        std::uint64_t dst = 0;
        std::uint32_t lkey = 0;
    };
    struct Pair
    {
        std::vector<Node*> planes;
        std::vector<PlaneRegion> dsts;
        std::uint64_t src = 0;
        std::uint32_t rkey = 0;
    };
    std::vector<Pair> setup(pairs);
    std::vector<verbs::QueuePair> flows;
    flows.reserve(qps);

    const auto profile = rnic::DeviceProfile::connectX4();
    for (std::size_t p = 0; p < pairs; ++p) {
        Pair& pr = setup[p];
        // With client_planes == 1 this is the historical layout: nodes
        // alternate client, server, client, server (LIDs 1..2*pairs).
        pr.planes = cluster.addNodePlanes(profile, client_planes);
        Node& server = cluster.addNode(profile);
        auto& scq = server.createCq();
        const std::uint64_t bytes = qpsPerPair * bytesPerQp;
        pr.src = server.alloc(bytes);
        auto& smr = server.registerMemory(pr.src, bytes,
                                          verbs::AccessFlags::pinned());
        pr.rkey = smr.rkey();
        std::vector<verbs::CompletionQueue*> pcqs;
        for (Node* plane : pr.planes) {
            auto& ccq = plane->createCq();
            pcqs.push_back(&ccq);
            const std::uint64_t dst = plane->alloc(bytes);
            auto& cmr = plane->registerMemory(
                dst, bytes, verbs::AccessFlags::odp());
            pr.dsts.push_back({dst, cmr.lkey()});
        }
        for (std::size_t q = 0; q < qpsPerPair; ++q) {
            const std::size_t plane = q % pr.planes.size();
            auto [cqp, sqp] = cluster.connectRc(
                *pr.planes[plane], *pcqs[plane], server, scq,
                pitfall::MicroBenchConfig::ucxDefaultConfig());
            flows.push_back(cqp);
        }
    }

    const auto postWave = [&](std::size_t wave) {
        for (std::size_t i = 0; i < flows.size(); ++i) {
            const Pair& pr = setup[i / qpsPerPair];
            const std::size_t q = i % qpsPerPair;
            const PlaneRegion& dst = pr.dsts[q % pr.dsts.size()];
            for (std::size_t op = 0; op < ops_per_wave; ++op) {
                const std::uint64_t off = q * bytesPerQp +
                                          (wave * ops_per_wave + op) * 128;
                flows[i].postRead(dst.dst + off, dst.lkey, pr.src + off,
                                  pr.rkey, 100,
                                  wave * ops_per_wave + op + 1);
            }
        }
    };
    const std::uint64_t perWave = qps * ops_per_wave;

    // The monitor's egress tap hashes every packet from construction on,
    // so only audit cells instantiate it — oracle=off measures the bare
    // datapath.
    std::unique_ptr<chaos::InvariantMonitor> monitor;

    // Only clients post, so server CQs stay at zero and the
    // cluster-wide completion count equals the client-CQ sum.
    const auto start = Clock::now();
    postWave(0);
    cluster.runUntilCompletions(perWave, Time::sec(600));
    if (audit) {
        monitor = std::make_unique<chaos::InvariantMonitor>(
            cluster.fabric());
        monitor->watchAll(cluster);  // late attach, traffic already flowed
    }
    postWave(1);
    CapacityResult result;
    result.completed =
        cluster.runUntilCompletions(2 * perWave, Time::sec(600));
    const auto stop = Clock::now();

    if (monitor)
        monitor->finalCheck();
    result.packets = cluster.fabric().totalSent();
    result.wallNs =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(stop - start)
                                .count());
    result.violations = monitor ? monitor->violationCount() : 0;
    result.traceHash = monitor ? monitor->traceHash() : 0;
    if (ShardedKernel* kernel = cluster.shardedKernel()) {
        const auto ks = kernel->kernelStats();
        result.barriers = ks.barriers;
        result.channelParcels = ks.channelParcels;
        result.islandEventsMax = ks.maxIslandExecuted;
        result.islandEventsMin = ks.minIslandExecuted;
        result.steals = ks.steals;
        result.maxClockLagNs = ks.maxClockLagNs;
        result.roundsSkipped = ks.roundsSkipped;
        result.readyDepth = ks.maxReadyQueueDepth;
        if (!ks.workerBusyFraction.empty()) {
            double sum = 0, mn = ks.workerBusyFraction.front();
            for (const double f : ks.workerBusyFraction) {
                sum += f;
                mn = f < mn ? f : mn;
            }
            result.busyMean =
                sum / static_cast<double>(ks.workerBusyFraction.size());
            result.busyMin = mn;
        }
    }
    return result;
}

} // namespace

void
registerFloodCapacity(exp::Registry& registry)
{
    registry.add(
        {"flood_capacity",
         "wall-clock datapath capacity at flood scale (4096 QPs)",
         [](const exp::RunContext& ctx) {
             const std::size_t trials = ctx.trials(3, 1);
             const std::size_t opsPerWave = 2;
             constexpr std::size_t pairs = 4;

             // Like simcore_micro, this bench always leaves a
             // machine-readable record for CI trend tracking.
             exp::RunContext local = ctx;
             if (local.jsonPath.empty() &&
                 std::getenv("IBSIM_JSON") == nullptr) {
                 local.jsonPath = "BENCH_simcore.json";
             }

             exp::Sweep sweep;
             sweep.axis("qps", {1024.0, 4096.0}, 0)
                 .axis("oracle", std::vector<std::string>{"off", "late"});

             auto result = local.runner("flood_capacity").run(
                 sweep, trials,
                 [opsPerWave](const exp::Cell& cell, std::uint64_t seed) {
                     const auto qps =
                         static_cast<std::size_t>(cell.num("qps"));
                     const bool audit = cell.valueIndex("oracle") == 1;
                     const CapacityResult r = runCapacityTrial(
                         qps, pairs, opsPerWave, audit, seed);
                     const double perPkt =
                         r.packets > 0
                             ? r.wallNs / static_cast<double>(r.packets)
                             : 0.0;
                     return exp::Metrics{}
                         .set("ns_per_packet", perPkt)
                         .set("packets_per_s",
                              perPkt > 0 ? 1e9 / perPkt : 0.0)
                         .set("packets_k",
                              static_cast<double>(r.packets) / 1e3)
                         .set("violations",
                              static_cast<double>(r.violations))
                         .set("completed", r.completed ? 1.0 : 0.0);
                 });

             auto sink = local.sink("flood_capacity");
             sink.table(
                 "Flood-scale datapath capacity (wall clock; numbers "
                 "vary by machine)",
                 result,
                 {exp::col("ns_per_packet", exp::Stat::Mean, 1,
                           "ns/pkt"),
                  exp::col("packets_per_s", exp::Stat::Mean, 0,
                           "pkts/s"),
                  exp::col("packets_k", exp::Stat::Mean, 1, "packets_k"),
                  exp::col("violations", exp::Stat::Mean, 0,
                           "violations"),
                  exp::col("completed", exp::Stat::Mean, 2,
                           "completed")});
             sink.note(
                 "Client-side-ODP flood over many nodes: the wall-clock "
                 "cost of the per-packet\nwire path at production scale. "
                 "oracle=late cells audit the run with\n"
                 "InvariantMonitor::watchAll() attached mid-run (late "
                 "attach) and must stay at\nviolations = 0.");

             // Island-mode scaling: the same flood on a 64-machine mesh
             // under the sharded kernel, workers swept 1..8. jobs = 1 is
             // the inline windowed reference; check_bench_regression.py
             // derives speedup_vs_seq from these rows and fails loudly
             // when it dips below 1.0. planes = 4 splits every client
             // machine into four per-QP-group islands (same 64 machines,
             // more schedulable islands).
             constexpr std::size_t parallelPairs = 32;
             exp::Sweep parallel;
             parallel.axis("nodes", {2.0 * parallelPairs}, 0)
                 .axis("qps", {16384.0}, 0)
                 .axis("planes",
                       axisFromEnv("IBSIM_FLOOD_PLANES", {1.0, 4.0}), 0)
                 .axis("jobs",
                       axisFromEnv("IBSIM_FLOOD_JOBS",
                                   {1.0, 2.0, 4.0, 8.0}),
                       0);

             auto presult = local.runner("flood_capacity_parallel")
                                .run(parallel, trials,
                                     [opsPerWave](const exp::Cell& cell,
                                                  std::uint64_t seed) {
                     const auto qps =
                         static_cast<std::size_t>(cell.num("qps"));
                     const auto jobs =
                         static_cast<unsigned>(cell.num("jobs"));
                     const auto planes =
                         static_cast<unsigned>(cell.num("planes"));
                     const CapacityResult r = runCapacityTrial(
                         qps, parallelPairs, opsPerWave, false, seed,
                         jobs, planes);
                     const double perPkt =
                         r.packets > 0
                             ? r.wallNs / static_cast<double>(r.packets)
                             : 0.0;
                     const double imbalance =
                         r.islandEventsMin > 0
                             ? static_cast<double>(r.islandEventsMax) /
                                   static_cast<double>(r.islandEventsMin)
                             : 0.0;
                     return exp::Metrics{}
                         .set("ns_per_packet", perPkt)
                         .set("packets_per_s",
                              perPkt > 0 ? 1e9 / perPkt : 0.0)
                         .set("packets_k",
                              static_cast<double>(r.packets) / 1e3)
                         .set("completed", r.completed ? 1.0 : 0.0)
                         .set("barriers",
                              static_cast<double>(r.barriers))
                         .set("channel_pkts",
                              static_cast<double>(r.channelParcels))
                         .set("island_events_max",
                              static_cast<double>(r.islandEventsMax))
                         .set("island_events_min",
                              static_cast<double>(r.islandEventsMin))
                         .set("imbalance", imbalance)
                         .set("steals", static_cast<double>(r.steals))
                         .set("max_clock_lag_ns",
                              static_cast<double>(r.maxClockLagNs))
                         .set("busy_mean", r.busyMean)
                         .set("busy_min", r.busyMin)
                         .set("rounds_skipped",
                              static_cast<double>(r.roundsSkipped))
                         .set("ready_depth",
                              static_cast<double>(r.readyDepth));
                 });

             auto psink = local.sink("flood_capacity_parallel");
             psink.table(
                 "Island-mode scaling on a 64-machine mesh (sharded "
                 "kernel; wall clock)",
                 presult,
                 {exp::col("ns_per_packet", exp::Stat::Mean, 1,
                           "ns/pkt"),
                  exp::col("packets_k", exp::Stat::Mean, 1, "packets_k"),
                  exp::col("barriers", exp::Stat::Mean, 0, "rounds"),
                  exp::col("channel_pkts", exp::Stat::Mean, 0,
                           "chan_pkts"),
                  exp::col("imbalance", exp::Stat::Mean, 2, "imbalance"),
                  exp::col("steals", exp::Stat::Mean, 0, "steals"),
                  exp::col("ready_depth", exp::Stat::Mean, 0,
                           "ready_q"),
                  exp::col("max_clock_lag_ns", exp::Stat::Mean, 0,
                           "lag_ns"),
                  exp::col("busy_mean", exp::Stat::Mean, 2, "busy_mean"),
                  exp::col("busy_min", exp::Stat::Mean, 2, "busy_min"),
                  exp::col("completed", exp::Stat::Mean, 2,
                           "completed")});
             psink.note(
                 "One island per node plus per-QP-group client planes "
                 "(planes=4 splits each client\nmachine into 4 islands); "
                 "pairwise channel clocks, work-stealing scheduler.\n"
                 "jobs=1 runs the windowed algorithm inline (the "
                 "sequential reference); every jobs>1\nrun is "
                 "bit-identical to it.\n"
                 "steals / lag_ns / busy_* / ready_q are wall-clock "
                 "scheduler observability,\nnot part of the "
                 "deterministic surface.");
         }});
}

} // namespace bench
} // namespace ibsim
