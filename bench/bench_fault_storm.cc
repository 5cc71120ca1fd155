/**
 * @file
 * Fault-storm / prefetch-sweep bench over the per-page state machine
 * (DESIGN.md section 14).
 *
 * Section 1 storms an ODP responder with invalidation bursts while a
 * client writes through it, at two storm intensities: how many fault
 * retries / queued faults the MMU-notifier windows generate, and what
 * the wall-clock cost of the per-page bookkeeping is (ns_per_item, gated
 * in CI).
 *
 * Section 2 sweeps the prefetch policies (none / fixed-width /
 * sequential-detect) and the huge-page knob on a sequential first-touch
 * scan: faults taken, pages pre-resolved, and simulated scan time.
 */

#include "suite.hh"

#include <chrono>

#include "chaos/chaos_engine.hh"
#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

constexpr std::uint64_t bufBytes = 64 * 1024;

struct StormResult
{
    double wallNs = 0;
    std::uint64_t events = 0;
    std::uint64_t faultsResolved = 0;
    std::uint64_t faultRetries = 0;
    std::uint64_t queuedBehindWindow = 0;
    std::uint64_t violations = 0;
    bool completed = false;
};

/** Write traffic through an ODP responder under an invalidation storm. */
StormResult
runFaultStorm(std::size_t pages_per_burst, std::size_t bursts,
              std::size_t ops, std::uint64_t seed)
{
    const auto wallStart = std::chrono::steady_clock::now();
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, seed);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
    (void)bqp;

    const auto src = a.alloc(bufBytes);
    const auto dst = b.alloc(bufBytes);
    a.touch(src, bufBytes);
    b.touch(dst, bufBytes);
    auto& amr =
        a.registerMemory(src, bufBytes, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, bufBytes, verbs::AccessFlags::odp());

    chaos::ChaosEngine engine(cluster.events(), [&] {
        chaos::ChaosConfig cfg;
        cfg.seed = seed;
        return cfg;
    }());
    engine.install(cluster.fabric());
    engine.startInvalidationStorm(b.driver(), bmr.table(), dst, bufBytes,
                                  Time::us(100), pages_per_burst, bursts);

    chaos::InvariantMonitor monitor(cluster.fabric());
    monitor.watch(a.rnic(), aqp.context());

    Rng& rng = cluster.rng();
    StormResult out;
    for (std::size_t i = 0; i < ops; ++i) {
        const std::uint64_t off = (i % 16) * mem::pageSize;
        aqp.postWrite(src + off, amr.lkey(), dst + off, bmr.rkey(), 256,
                      i + 1);
        cluster.advance(rng.uniformTime(Time::us(20), Time::us(120)));
    }
    out.completed = cluster.runUntil(
        [&] {
            return aqp.outstanding() == 0 &&
                   acq.totalCompletions() >= ops;
        },
        cluster.now() + Time::sec(600));
    monitor.finalCheck();

    out.wallNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wallStart)
            .count());
    out.events = cluster.events().executed();
    out.faultsResolved = b.driver().stats().faultsResolved;
    out.faultRetries = b.driver().stats().faultRetries;
    out.queuedBehindWindow = b.driver().stats().faultsQueuedBehindWindow;
    out.violations = monitor.violationCount();
    return out;
}

struct ScanResult
{
    std::uint64_t faultsRaised = 0;
    std::uint64_t prefetchedPages = 0;
    std::uint64_t hugePagesMapped = 0;
    double scanMs = 0;
};

/** Sequential first-touch WRITE scan over a cold ODP region. */
ScanResult
runPrefetchScan(const std::string& policy, std::uint64_t width,
                std::size_t pages, std::uint64_t seed)
{
    auto profile = rnic::DeviceProfile::connectX4();
    auto& ft = profile.faultTiming;
    if (policy == "fixed") {
        ft.prefetchPolicy = odp::PrefetchPolicy::FixedWidth;
        ft.prefetchWidth = width;
    } else if (policy == "sequential") {
        ft.prefetchPolicy = odp::PrefetchPolicy::SequentialDetect;
        ft.prefetchWidth = width;
    } else if (policy == "huge") {
        ft.hugePages = true;
        ft.hugePageSpan = width;
    }
    Cluster cluster(profile, 2, seed);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq);
    (void)bqp;

    const std::uint64_t area = pages * mem::pageSize;
    const auto src = a.alloc(area);
    const auto dst = b.alloc(area);
    a.touch(src, area);
    auto& amr =
        a.registerMemory(src, area, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, area, verbs::AccessFlags::odp());

    const Time start = cluster.now();
    for (std::size_t p = 0; p < pages; ++p) {
        aqp.postWrite(src + p * mem::pageSize, amr.lkey(),
                      dst + p * mem::pageSize, bmr.rkey(), 256, p + 1);
        cluster.runUntil(
            [&] { return acq.totalCompletions() >= p + 1; },
            cluster.now() + Time::sec(10));
    }

    ScanResult out;
    out.faultsRaised = b.driver().stats().faultsRaised;
    out.prefetchedPages = b.driver().stats().prefetchedPages +
                          b.driver().stats().hugePagesMapped;
    out.hugePagesMapped = b.driver().stats().hugePagesMapped;
    out.scanMs = (cluster.now() - start).toMs();
    return out;
}

} // namespace

void
registerFaultStorm(exp::Registry& registry)
{
    registry.add(
        {"fault_storm",
         "invalidation storms vs the ODP page state machine; prefetch "
         "policy sweep",
         [](const exp::RunContext& ctx) {
             const std::size_t ops = ctx.trials(192, 48);
             const std::size_t bursts = ctx.trials(120, 40);

             exp::Sweep storm;
             storm.axis("burst_pages", {1.0, 4.0}, 0);

             auto stormResult = ctx.runner("fault_storm").run(
                 storm, 1,
                 [ops, bursts](const exp::Cell& cell,
                               std::uint64_t seed) {
                     const auto burst = static_cast<std::size_t>(
                         cell.num("burst_pages"));
                     const StormResult r =
                         runFaultStorm(burst, bursts, ops, seed);
                     return exp::Metrics{}
                         .set("ns_per_item",
                              r.wallNs /
                                  static_cast<double>(std::max<
                                                      std::uint64_t>(
                                      1, r.events)))
                         .set("faults_resolved",
                              static_cast<double>(r.faultsResolved))
                         .set("fault_retries",
                              static_cast<double>(r.faultRetries))
                         .set("queued_behind_window",
                              static_cast<double>(r.queuedBehindWindow))
                         .set("violations",
                              static_cast<double>(r.violations))
                         .set("completed", r.completed);
                 });

             auto sink = ctx.sink("fault_storm");
             sink.table(
                 "Invalidation storm through the ODP page state "
                 "machine (wall clock ns per simulated event; " +
                     std::to_string(ops) + " WRITEs)",
                 stormResult,
                 {exp::col("ns_per_item", exp::Stat::Mean, 1, "ns/event"),
                  exp::col("faults_resolved", exp::Stat::Mean, 0,
                           "faults"),
                  exp::col("fault_retries", exp::Stat::Mean, 0,
                           "retries"),
                  exp::col("queued_behind_window", exp::Stat::Mean, 0,
                           "queued"),
                  exp::col("violations", exp::Stat::Mean, 0,
                           "violations")});
             sink.note(
                 "The state machine turns storm interleavings into "
                 "explicit notifier\nwindows: retries and queued faults "
                 "count the fault/invalidate collisions.\nns_per_item "
                 "bounds the bookkeeping cost.");

             const std::size_t scanPages = ctx.trials(96, 32);
             exp::Sweep scan;
             scan.axis("policy",
                       std::vector<std::string>{"none", "fixed",
                                                "sequential", "huge"})
                 .axis("width_pages", {8.0, 32.0}, 0);

             auto scanResult = ctx.runner("fault_storm.prefetch").run(
                 scan, 1,
                 [scanPages](const exp::Cell& cell, std::uint64_t seed) {
                     const auto width = static_cast<std::uint64_t>(
                         cell.num("width_pages"));
                     const ScanResult r = runPrefetchScan(
                         cell.str("policy"), width, scanPages, seed);
                     return exp::Metrics{}
                         .set("faults_raised",
                              static_cast<double>(r.faultsRaised))
                         .set("pages_preresolved",
                              static_cast<double>(r.prefetchedPages))
                         .set("scan_ms", r.scanMs);
                 });

             sink.table(
                 "Prefetch-policy / huge-page sweep: sequential "
                 "first-touch scan of " + std::to_string(scanPages) +
                     " cold ODP pages",
                 scanResult,
                 {exp::col("faults_raised", exp::Stat::Mean, 0,
                           "faults"),
                  exp::col("pages_preresolved", exp::Stat::Mean, 0,
                           "preresolved"),
                  exp::col("scan_ms", exp::Stat::Mean, 2, "scan_ms")});
             sink.note(
                 "Each policy trades faults for speculative work: "
                 "fixed-width and\nsequential-detect cut demand faults "
                 "roughly by the prefetch width, and\nhuge pages "
                 "collapse the scan to one fault per aligned block — "
                 "the knobs\nPsistakis et al. measure for "
                 "virtual-address RDMA fault handling.");
         }});
}

} // namespace bench
} // namespace ibsim
