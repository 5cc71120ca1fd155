/**
 * @file
 * Micro-benchmarks of the simulator substrate itself: event queue
 * throughput, PSN arithmetic, and full RC round trips. These bound how
 * large a flood experiment the harness can simulate per second of wall
 * clock.
 *
 * Unlike the figure benches, the reported ns/op is *wall-clock* time of
 * this machine, so it is the one bench whose numbers legitimately vary
 * between runs (and between --jobs settings). The deterministic part —
 * the number of simulated items per trial — is fixed by the config.
 */

#include "suite.hh"

#include <chrono>
#include <cstdlib>

#include "cluster/cluster.hh"
#include "rnic/qp_context.hh"
#include "simcore/event_queue.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double
nsPerItem(Clock::time_point start, Clock::time_point stop,
          std::size_t items)
{
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        stop - start);
    return static_cast<double>(ns.count()) /
           static_cast<double>(items ? items : 1);
}

/** Schedule + run 1000 events per repetition. */
double
eventQueueScheduleRun(std::size_t reps)
{
    const auto start = Clock::now();
    std::uint64_t sink = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        EventQueue q;
        for (int i = 0; i < 1000; ++i)
            q.scheduleAfter(Time::ns(i), [&sink] { ++sink; });
        q.run();
    }
    const auto stop = Clock::now();
    // The side effect keeps the loop from being optimised away.
    if (sink != reps * 1000)
        return -1;
    return nsPerItem(start, stop, reps * 1000);
}

/** Schedule + cancel 1000 events per repetition. */
double
eventQueueCancel(std::size_t reps)
{
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
        EventQueue q;
        std::vector<EventHandle> handles;
        handles.reserve(1000);
        for (int i = 0; i < 1000; ++i)
            handles.push_back(q.scheduleAfter(Time::ns(i), [] {}));
        for (auto& h : handles)
            q.cancel(h);
        q.run();
    }
    const auto stop = Clock::now();
    return nsPerItem(start, stop, reps * 1000);
}

/**
 * Flood-shaped event churn: the schedule/cancel pattern a message flood
 * imposes on the kernel. Every message on every QP re-arms a ~1 ms
 * retransmission timer (cancelling the previous one — the timer almost
 * never fires) and schedules a near-future delivery. Cancels are O(1):
 * the cancelled timers stay in the event heap until they reach its top
 * or a compaction drops them, and their pool slots are then reused.
 */
double
eventQueueFlood(std::size_t reps)
{
    constexpr int kQps = 64;
    constexpr int kMsgsPerQp = 100;
    std::uint64_t delivered = 0;
    std::size_t ops = 0;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
        EventQueue q;
        std::vector<EventHandle> rexmit(kQps);
        for (int msg = 0; msg < kMsgsPerQp; ++msg) {
            for (int i = 0; i < kQps; ++i) {
                if (msg > 0) {
                    q.cancel(rexmit[i]);
                    ++ops;
                }
                rexmit[i] =
                    q.scheduleAfter(Time::us(1000) + Time::ns(i), [] {});
                q.scheduleAfter(Time::ns(1500 + (i % 7) * 100),
                                [&delivered] { ++delivered; });
                ops += 2;
            }
            q.advance(Time::us(2));
        }
        for (int i = 0; i < kQps; ++i) {
            q.cancel(rexmit[i]);
            ++ops;
        }
        q.run();
    }
    const auto stop = Clock::now();
    if (delivered !=
        reps * static_cast<std::uint64_t>(kQps) * kMsgsPerQp)
        return -1;
    return nsPerItem(start, stop, ops);
}

/** 24-bit PSN wrap-around difference. */
double
psnDiff(std::size_t iters)
{
    std::uint32_t a = 0x123456;
    const std::uint32_t b = 0xfffff0;
    volatile std::int64_t sink = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
        sink = rnic::psnDiff(a, b);
        a = (a + 1) & 0xffffff;
    }
    const auto stop = Clock::now();
    (void)sink;
    return nsPerItem(start, stop, iters);
}

/** Pinned 100-B READ round trips on a long-lived cluster. */
double
pinnedReadRoundTrip(std::size_t iters, std::uint64_t seed)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, seed);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
    const std::uint64_t src = server.alloc(4096);
    const std::uint64_t dst = client.alloc(4096);
    auto& smr =
        server.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& cmr =
        client.registerMemory(dst, 4096, verbs::AccessFlags::pinned());

    std::uint64_t wr = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
        cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, wr++);
        cluster.runUntil([&] { return ccq.totalCompletions() >= wr; });
    }
    const auto stop = Clock::now();
    return nsPerItem(start, stop, iters);
}

/** Fresh cluster per iteration; first ODP READ pays the fault path. */
double
odpReadFirstFault(std::size_t iters, std::uint64_t seed)
{
    double total_ns = 0;
    for (std::size_t i = 0; i < iters; ++i) {
        Cluster cluster(rnic::DeviceProfile::connectX4(), 2, seed + i);
        Node& client = cluster.node(0);
        Node& server = cluster.node(1);
        auto& ccq = client.createCq();
        auto& scq = server.createCq();
        auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
        const std::uint64_t src = server.alloc(4096);
        const std::uint64_t dst = client.alloc(4096);
        auto& smr =
            server.registerMemory(src, 4096, verbs::AccessFlags::odp());
        auto& cmr = client.registerMemory(dst, 4096,
                                          verbs::AccessFlags::pinned());

        const auto start = Clock::now();
        cqp.postRead(dst, cmr.lkey(), src, smr.rkey(), 100, 1);
        cluster.runUntil([&] { return ccq.totalCompletions() >= 1; });
        const auto stop = Clock::now();
        total_ns += nsPerItem(start, stop, 1);
    }
    return total_ns / static_cast<double>(iters ? iters : 1);
}

} // namespace

void
registerSimcoreMicro(exp::Registry& registry)
{
    registry.add(
        {"simcore_micro", "simulator substrate wall-clock throughput",
         [](const exp::RunContext& ctx) {
             const std::size_t reps = ctx.trials(200, 20);

             // This bench always leaves a machine-readable record: when
             // no --json/IBSIM_JSON destination was given, its rows go
             // to BENCH_simcore.json in the working directory (the file
             // the CI trajectory tracking consumes).
             exp::RunContext local = ctx;
             if (local.jsonPath.empty() &&
                 std::getenv("IBSIM_JSON") == nullptr) {
                 local.jsonPath = "BENCH_simcore.json";
             }

             exp::Sweep sweep;
             sweep.axis("micro",
                        std::vector<std::string>{
                            "event_queue_schedule_run",
                            "event_queue_cancel", "event_queue_flood",
                            "psn_diff", "pinned_read_round_trip",
                            "odp_read_first_fault"});

             auto result = local.runner("simcore_micro").run(
                 sweep, 1,
                 [reps](const exp::Cell& cell, std::uint64_t seed) {
                     double ns = 0;
                     std::size_t items = 0;
                     switch (cell.valueIndex("micro")) {
                     case 0:
                         items = reps * 1000;
                         ns = eventQueueScheduleRun(reps);
                         break;
                     case 1:
                         items = reps * 1000;
                         ns = eventQueueCancel(reps);
                         break;
                     case 2:
                         // 64 QPs x 100 msgs x (2 schedules + 1 cancel)
                         items = reps * 19200;
                         ns = eventQueueFlood(reps);
                         break;
                     case 3:
                         items = reps * 10000;
                         ns = psnDiff(reps * 10000);
                         break;
                     case 4:
                         items = reps * 10;
                         ns = pinnedReadRoundTrip(reps * 10, seed);
                         break;
                     default:
                         items = reps / 4 + 1;
                         ns = odpReadFirstFault(reps / 4 + 1, seed);
                         break;
                     }
                     return exp::Metrics{}
                         .set("ns_per_item", ns)
                         .set("items", static_cast<double>(items))
                         .set("items_per_s",
                              ns > 0 ? 1e9 / ns : 0.0);
                 });

             auto sink = local.sink("simcore_micro");
             sink.table(
                 "Simulator substrate micro-benchmarks (wall clock; "
                 "numbers vary by machine)",
                 result,
                 {exp::col("ns_per_item", exp::Stat::Mean, 1, "ns/item"),
                  exp::col("items", exp::Stat::Mean, 0, "items"),
                  exp::col("items_per_s", exp::Stat::Mean, 0,
                           "items/s")});
             sink.note(
                 "These bound how large a flood experiment the harness "
                 "can simulate per second\nof wall clock; they are the "
                 "one bench whose numbers legitimately differ across\n"
                 "runs and --jobs settings.");
         }});
}

} // namespace bench
} // namespace ibsim
