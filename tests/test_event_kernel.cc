/**
 * @file
 * Differential stress tests of the event kernel.
 *
 * The timer-wheel kernel must execute the exact event sequence — same
 * times, same insertion-order tie-breaks — as a trivially-correct sorted
 * reference implementation, under randomized schedule/cancel/advance
 * interleavings whose delays span every tier (due window, all four wheel
 * levels, overflow heap). A second test drives the flood workload shape
 * (mass schedule/cancel churn) and asserts the node pool stays bounded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "simcore/cross_channel.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/sharded_kernel.hh"
#include "simcore/time.hh"

using namespace ibsim;

namespace {

/**
 * The kernel's contract in its simplest possible form: a flat list,
 * executed in (when, seq) order, with lazy cancellation. O(n) per event,
 * obviously correct.
 */
class ReferenceQueue
{
  public:
    std::uint64_t
    schedule(std::int64_t when)
    {
        events_.push_back(Ev{when, nextSeq_++, nextId_++, false});
        return events_.back().id;
    }

    bool
    cancel(std::uint64_t id)
    {
        for (auto& e : events_) {
            if (e.id == id) {
                if (e.cancelled)
                    return false;
                e.cancelled = true;
                return true;
            }
        }
        return false;  // already executed (record erased) or never existed
    }

    /** Execute everything due at or before @p target, recording (when, id). */
    void
    advanceTo(std::int64_t target,
              std::vector<std::pair<std::int64_t, std::uint64_t>>& out)
    {
        for (;;) {
            std::size_t best = events_.size();
            for (std::size_t i = 0; i < events_.size(); ++i) {
                if (events_[i].cancelled)
                    continue;
                if (best == events_.size() ||
                    events_[i].when < events_[best].when ||
                    (events_[i].when == events_[best].when &&
                     events_[i].seq < events_[best].seq)) {
                    best = i;
                }
            }
            if (best == events_.size() || events_[best].when > target)
                break;
            out.emplace_back(events_[best].when, events_[best].id);
            events_.erase(events_.begin() +
                          static_cast<std::ptrdiff_t>(best));
        }
        // Drop cancelled records that the sweep has passed, mirroring the
        // real kernel reclaiming them (keeps cancel() of executed ids
        // answering false, not true).
        events_.erase(std::remove_if(events_.begin(), events_.end(),
                                     [target](const Ev& e) {
                                         return e.cancelled &&
                                                e.when <= target;
                                     }),
                      events_.end());
    }

    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const auto& e : events_)
            n += e.cancelled ? 0 : 1;
        return n;
    }

  private:
    struct Ev
    {
        std::int64_t when;
        std::uint64_t seq;
        std::uint64_t id;
        bool cancelled;
    };

    std::vector<Ev> events_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t nextId_ = 1;
};

/** A delay spanning due window, every wheel level, and the overflow tier. */
std::int64_t
tierSpanningDelay(Rng& rng)
{
    const double u = rng.uniform(0, 1);
    if (u < 0.35)
        return rng.uniformInt(0, 2000);  // due window / wheel level 0
    if (u < 0.65)
        return rng.uniformInt(0, 2000000);  // levels 0-1
    if (u < 0.85)
        return rng.uniformInt(0, 2000000000);  // levels 2-3
    return rng.uniformInt(0, 20000000000);  // beyond horizon: overflow
}

} // namespace

TEST(EventKernelStress, MatchesReferenceUnderRandomInterleaving)
{
    for (const std::uint64_t seed : {11u, 23u, 47u, 101u}) {
        Rng rng(seed);
        EventQueue q;
        ReferenceQueue ref;
        std::vector<std::pair<std::int64_t, std::uint64_t>> got;
        std::vector<std::pair<std::int64_t, std::uint64_t>> want;
        // Handles of every event ever scheduled (executed ones included,
        // so cancel-after-execute gets exercised too).
        std::vector<std::pair<EventHandle, std::uint64_t>> issued;
        std::int64_t now = 0;

        for (int op = 0; op < 8000; ++op) {
            const double roll = rng.uniform(0, 1);
            if (roll < 0.55) {
                const std::int64_t when = now + tierSpanningDelay(rng);
                const std::uint64_t id = ref.schedule(when);
                EventHandle h = q.schedule(
                    Time::ns(when),
                    [&q, &got, id] {
                        got.emplace_back(q.now().toNs(), id);
                    });
                issued.emplace_back(h, id);
            } else if (roll < 0.8 && !issued.empty()) {
                const auto pick = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(issued.size()) - 1));
                EXPECT_EQ(q.cancel(issued[pick].first),
                          ref.cancel(issued[pick].second));
            } else {
                const std::int64_t delta =
                    rng.uniformInt(0, 50000000);  // up to 50 ms
                now += delta;
                q.advance(Time::ns(delta));
                ref.advanceTo(now, want);
                ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
            }
            if (op % 97 == 0) {
                ASSERT_EQ(q.pending(), ref.pending()) << "seed " << seed;
            }
        }

        // Drain both completely.
        q.run();
        ref.advanceTo(std::numeric_limits<std::int64_t>::max(), want);
        ASSERT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(q.pending(), 0u);
        EXPECT_EQ(ref.pending(), 0u);
    }
}

TEST(EventKernelStress, FloodChurnKeepsPoolBounded)
{
    // The flood workload shape: every cycle arms a ~1 ms retransmission
    // timer, delivers a packet ~2 us later and cancels the timer. The
    // cancelled timers are reaped when the wheel sweeps past their slot,
    // so the pool's high-water mark stays proportional to the number of
    // events in flight over one timer window — it must not grow with the
    // number of cycles (the old kernel's cancelled_ set did).
    EventQueue q;
    int delivered = 0;
    for (int cycle = 0; cycle < 50000; ++cycle) {
        EventHandle timer = q.scheduleAfter(Time::ms(1), [] {
            ADD_FAILURE() << "cancelled timer fired";
        });
        q.scheduleAfter(Time::us(2), [&delivered] { ++delivered; });
        q.advance(Time::us(2));
        EXPECT_TRUE(q.cancel(timer));
    }
    EXPECT_EQ(delivered, 50000);
    const auto stats = q.kernelStats();
    // One 1 ms window holds ~500 cycles x 2 events; leave generous slack
    // but stay orders of magnitude below the 100k events scheduled.
    EXPECT_LE(stats.poolNodes, 4096u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
}

// =====================================================================
// ShardedKernel: the conservative-lookahead island scheduler.
// =====================================================================

namespace {

/** Per-island execution record — each island appends only its own
 * vector, so recording is race-free at any worker count. */
using IslandTrace = std::vector<std::pair<std::int64_t, int>>;

/**
 * Run a fixed two-island workload (interleaved timestamps, some inside
 * one lookahead window, some spanning several) and return the per-island
 * traces. The workload is identical for every jobs value; the traces
 * must be too.
 */
std::vector<IslandTrace>
runTwoIslandWorkload(unsigned jobs)
{
    ShardedKernel kernel(Time::us(1), jobs);
    const std::size_t i0 = kernel.addIsland();
    const std::size_t i1 = kernel.addIsland();
    std::vector<IslandTrace> traces(2);

    const auto record = [&](std::size_t island, int tag) {
        traces[island].emplace_back(
            kernel.island(island).now().toNs(), tag);
    };
    int tag = 0;
    for (const std::int64_t ns :
         {0L, 100L, 100L, 950L, 1000L, 2500L, 2500L, 9999L, 10000L}) {
        for (const std::size_t island : {i0, i1}) {
            const int t = tag++;
            kernel.island(island).schedule(
                Time::ns(ns), [&record, island, t] { record(island, t); });
        }
    }
    EXPECT_TRUE(kernel.run());
    EXPECT_EQ(kernel.pending(), 0u);
    EXPECT_EQ(kernel.executed(), 18u);
    const auto ks = kernel.kernelStats();
    EXPECT_GT(ks.windows, 1u);  // 0..10000 ns cannot fit one 1 us window
    EXPECT_EQ(ks.executedPerIsland.size(), 2u);
    EXPECT_EQ(ks.executedPerIsland[0] + ks.executedPerIsland[1],
              kernel.executed());
    return traces;
}

} // namespace

TEST(ShardedKernel, WindowedRunMatchesTimestampOrderPerIsland)
{
    const auto traces = runTwoIslandWorkload(1);
    ASSERT_EQ(traces.size(), 2u);
    for (const IslandTrace& trace : traces) {
        ASSERT_EQ(trace.size(), 9u);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            EXPECT_LE(trace[i - 1].first, trace[i].first);
            // Equal timestamps keep insertion order (tags ascend).
            if (trace[i - 1].first == trace[i].first) {
                EXPECT_LT(trace[i - 1].second, trace[i].second);
            }
        }
    }
}

TEST(ShardedKernel, TracesAreBitIdenticalAcrossWorkerCounts)
{
    const auto reference = runTwoIslandWorkload(1);
    // jobs is clamped to the island count, so 8 exercises the clamp.
    EXPECT_EQ(runTwoIslandWorkload(2), reference);
    EXPECT_EQ(runTwoIslandWorkload(8), reference);
}

TEST(ShardedKernel, SingleIslandTopologyDegeneratesToSequential)
{
    // One island: the kernel runs the island's queue directly and any
    // jobs count clamps to one worker.
    ShardedKernel kernel(Time::us(1), 4);
    kernel.addIsland();
    std::vector<std::int64_t> fired;
    for (const std::int64_t ns : {0L, 1L, 999L, 1000L, 7777L, 50000L}) {
        kernel.island(0).schedule(Time::ns(ns), [&fired, ns] {
            fired.push_back(ns);
        });
    }
    EXPECT_TRUE(kernel.run());
    EXPECT_EQ(kernel.jobs(), 1u);
    EXPECT_EQ(fired,
              (std::vector<std::int64_t>{0, 1, 999, 1000, 7777, 50000}));
    EXPECT_EQ(kernel.kernelStats().channelParcels, 0u);
}

TEST(ShardedKernel, SingleIslandRunsItsQueueDirectly)
{
    // One island has no rounds: runUntil stops at exactly the
    // satisfying event, not at a round boundary (rounds are 16 us here,
    // every event sits inside the first one).
    ShardedKernel kernel(Time::us(1), 4);
    kernel.addIsland();
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        kernel.island(0).schedule(Time::ns(100 * i), [&count] { ++count; });

    EXPECT_TRUE(kernel.runUntil([&count] { return count == 5; }));
    EXPECT_EQ(count, 5);
    EXPECT_EQ(kernel.now(), Time::ns(500));

    // run(limit) executes events at exactly the limit.
    EXPECT_FALSE(kernel.run(Time::ns(700)));
    EXPECT_EQ(count, 7);
    EXPECT_EQ(kernel.now(), Time::ns(700));

    // advance() leaves the clock at its target, between events.
    kernel.advance(Time::ns(150));
    EXPECT_EQ(count, 8);
    EXPECT_EQ(kernel.now(), Time::ns(850));

    EXPECT_EQ(kernel.jobs(), 1u);
    const ShardedKernel::KernelStats ks = kernel.kernelStats();
    EXPECT_EQ(ks.barriers, 0u);
    EXPECT_TRUE(ks.workerBusyFraction.empty());
}

TEST(ShardedKernel, ZeroDelaySelfLinksNeedNoLookahead)
{
    // The lookahead bounds *cross-island* influence only: an island
    // feeding events back to itself with zero delay (a self-link) is
    // plain same-queue scheduling and must neither violate the window
    // contract nor stall the other island.
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        int chain = 0;
        std::function<void()> self = [&] {
            if (++chain < 100)
                kernel.island(0).schedule(kernel.island(0).now(), [&] {
                    self();
                });
        };
        kernel.island(0).schedule(Time::ns(500), [&] { self(); });
        bool other = false;
        kernel.island(1).schedule(Time::ns(500), [&other] {
            other = true;
        });
        EXPECT_TRUE(kernel.run());
        EXPECT_EQ(chain, 100);
        EXPECT_TRUE(other);
    }
}

TEST(ShardedKernel, IslandWithoutInNeighborsNeverBlocks)
{
    // Declaring only 0 -> 1 leaves island 0 with no in-neighbors: its
    // safe horizon is unbounded and it must run to its own limit even
    // while island 1 (which must wait on 0's clock) has earlier work.
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        kernel.declareEdge(0, 1);
        EXPECT_TRUE(kernel.hasEdge(0, 1));
        EXPECT_FALSE(kernel.hasEdge(1, 0));
        std::uint64_t ran0 = 0, ran1 = 0;
        for (int i = 0; i < 64; ++i) {
            kernel.island(0).schedule(Time::us(100 + i),
                                      [&ran0] { ++ran0; });
            kernel.island(1).schedule(Time::ns(10 * i),
                                      [&ran1] { ++ran1; });
        }
        EXPECT_TRUE(kernel.run());
        EXPECT_EQ(ran0, 64u);
        EXPECT_EQ(ran1, 64u);
        EXPECT_EQ(kernel.pending(), 0u);
    }
}

TEST(ShardedKernel, EdgeDeclarationsSurviveInterleavedIslandGrowth)
{
    // The cluster layer interleaves island creation with edge
    // declarations (add a node pair, connect its QPs, add the next
    // pair, ...). Growing the edge matrix must preserve everything
    // declared before the growth — wiping it would leave earlier
    // destination islands with no in-neighbors, letting them run ahead
    // of their producers (a causality violation, not just a test fail).
    ShardedKernel kernel(Time::us(1), 2);
    kernel.addIsland();
    kernel.addIsland();
    kernel.declareEdge(0, 1);
    kernel.declareEdge(1, 0);
    kernel.addIsland();
    kernel.addIsland();
    kernel.declareEdge(2, 3);
    kernel.declareEdge(3, 2);
    EXPECT_TRUE(kernel.hasEdge(0, 1));
    EXPECT_TRUE(kernel.hasEdge(1, 0));
    EXPECT_TRUE(kernel.hasEdge(2, 3));
    EXPECT_TRUE(kernel.hasEdge(3, 2));
    EXPECT_FALSE(kernel.hasEdge(0, 2));
    EXPECT_FALSE(kernel.hasEdge(3, 1));
}

TEST(ShardedKernel, DenseIslandCoversIslandsAddedLater)
{
    // A dense island (UD: destinations named per work request) must stay
    // connected to islands created after the declaration too — a UD QP
    // can address a node that did not exist when the QP was made.
    ShardedKernel kernel(Time::us(1), 1);
    kernel.addIsland();
    kernel.addIsland();
    kernel.declareDense(0);
    kernel.addIsland();
    EXPECT_TRUE(kernel.hasEdge(0, 2));
    EXPECT_TRUE(kernel.hasEdge(2, 0));
    EXPECT_TRUE(kernel.hasEdge(0, 1));
    EXPECT_FALSE(kernel.hasEdge(1, 2));  // neither is dense, no edge
}

TEST(ShardedKernel, RunWithLimitAtPendingEventExecutesIt)
{
    // limit == the earliest pending event is a degenerate round (the
    // round limit equals the synchronized clock). The window holding the
    // event must still execute — EventQueue::run()'s events-at-limit-run
    // semantics — rather than every island reporting an empty round done
    // and the kernel spinning forever.
    ShardedKernel kernel(Time::us(1), 1);
    kernel.addIsland();
    bool fired = false;
    kernel.island(0).schedule(Time(), [&fired] { fired = true; });
    EXPECT_TRUE(kernel.run(Time()));
    EXPECT_TRUE(fired);

    // Same shape mid-run: the clocks already sit exactly at the limit.
    kernel.run(Time::us(3));
    bool again = false;
    kernel.island(0).schedule(Time::us(3), [&again] { again = true; });
    EXPECT_TRUE(kernel.run(Time::us(3)));
    EXPECT_TRUE(again);
}

TEST(ShardedKernel, AdvanceLeavesEveryIslandClockAtTarget)
{
    ShardedKernel kernel(Time::us(5), 2);
    kernel.addIsland();
    kernel.addIsland();
    kernel.addIsland();
    bool fired = false;
    kernel.island(1).schedule(Time::us(3), [&fired] { fired = true; });

    kernel.advance(Time::us(1));
    EXPECT_EQ(kernel.now(), Time::us(1));
    EXPECT_FALSE(fired);

    kernel.advance(Time::us(9));
    EXPECT_TRUE(fired);
    EXPECT_EQ(kernel.now(), Time::us(10));
    for (std::size_t i = 0; i < kernel.islandCount(); ++i)
        EXPECT_EQ(kernel.island(i).now(), Time::us(10)) << "island " << i;
}

TEST(ShardedKernel, RunUntilChecksPredicateAtBarriers)
{
    ShardedKernel kernel(Time::us(1), 1);
    kernel.addIsland();
    kernel.addIsland();
    int count = 0;
    for (int i = 1; i <= 20; ++i)
        kernel.island(i % 2).schedule(Time::us(i),
                                      [&count] { ++count; });

    EXPECT_TRUE(kernel.runUntil([&count] { return count >= 5; },
                                Time::ms(1)));
    // The predicate is only polled at round boundaries (every
    // kBaseWindows grid windows), so extra events inside the round
    // may run — but never the whole backlog, and never events past the
    // satisfied round.
    EXPECT_GE(count, 5);
    EXPECT_LT(count, 20);
    // An exhausted limit reports false without touching future windows.
    EXPECT_FALSE(kernel.runUntil([] { return false; },
                                 kernel.now() + Time::ns(1)));
    EXPECT_TRUE(kernel.runUntil([&count] { return count == 20; },
                                Time::ms(1)));
    EXPECT_EQ(kernel.executed(), 20u);
}

namespace {

/**
 * A minimal cross-island mailbox exercising the BarrierAgent protocol
 * the way net::Fabric does: the source island pushes into per-(src, dst)
 * CrossChannels keyed by the message's effect time (send + lookahead);
 * the destination drains everything its window horizon covers before
 * running the window. Producer and consumer islands run concurrently
 * under the pairwise channel clocks, which is exactly what CrossChannel
 * plus the clocks' release/acquire protocol make safe.
 */
struct MailboxAgent : ShardedKernel::BarrierAgent
{
    using Msg = std::pair<Time, int>;
    using Channel = CrossChannel<Msg>;

    explicit MailboxAgent(ShardedKernel& kernel)
        : kernel_(kernel), received_(kernel.islandCount())
    {
        for (std::size_t i = 0; i < kernel.islandCount(); ++i) {
            auto& row = out_.emplace_back();
            for (std::size_t j = 0; j < kernel.islandCount(); ++j)
                row.emplace_back();
        }
        kernel.setBarrierAgent(this);
    }

    void
    post(std::size_t from, std::size_t to, int tag)
    {
        const Time at = kernel_.island(from).now() + kernel_.lookahead();
        out_[from][to].push(at.toNs(), {at, tag});
    }

    std::uint64_t
    flushInbound(std::size_t island, Time horizon) override
    {
        std::vector<Msg> batch;
        for (auto& row : out_) {
            row[island].drainUpTo(
                horizon.toNs(),
                [](const Msg& m) { return m.first.toNs(); }, batch);
        }
        for (auto& [at, tag] : batch) {
            auto& sink = received_[island];
            kernel_.island(island).schedule(at, [&sink, island, tag, this] {
                sink.emplace_back(kernel_.island(island).now().toNs(), tag);
            });
        }
        return batch.size();
    }

    Time
    inboundEarliest(std::size_t island) override
    {
        std::int64_t earliest = Channel::kEmpty;
        for (auto& row : out_)
            earliest = std::min(earliest, row[island].minKey());
        return earliest == Channel::kEmpty ? Time::max()
                                           : Time::fromNs(earliest);
    }

    std::size_t
    inboundPending(std::size_t island) override
    {
        std::size_t total = 0;
        for (auto& row : out_)
            total += row[island].size();
        return total;
    }

    ShardedKernel& kernel_;
    /** out_[src][dst]; deques because CrossChannel must never move. */
    std::deque<std::deque<Channel>> out_;
    std::vector<IslandTrace> received_;
};

} // namespace

TEST(ShardedKernel, BarrierAgentDeliversCrossIslandParcels)
{
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        MailboxAgent mail(kernel);

        // Island 0 pings island 1 every 600 ns; island 1 echoes back.
        for (int i = 0; i < 8; ++i) {
            kernel.island(0).schedule(Time::ns(600 * i), [&mail, i] {
                mail.post(0, 1, i);
            });
        }
        kernel.island(1).schedule(Time::us(2),
                                  [&mail] { mail.post(1, 0, 100); });
        EXPECT_TRUE(kernel.run());

        ASSERT_EQ(mail.received_[1].size(), 8u) << "jobs=" << jobs;
        for (int i = 0; i < 8; ++i) {
            // Arrived exactly one lookahead after the send.
            EXPECT_EQ(mail.received_[1][static_cast<std::size_t>(i)],
                      (std::pair<std::int64_t, int>{600 * i + 1000, i}));
        }
        ASSERT_EQ(mail.received_[0].size(), 1u);
        EXPECT_EQ(mail.received_[0][0].second, 100);
        EXPECT_EQ(kernel.kernelStats().channelParcels, 9u);
        kernel.setBarrierAgent(nullptr);
    }
}

// =====================================================================
// Island-mode flood differential: a miniature of the flood_capacity
// bench (client-side-ODP READ flood over RC pairs), audited end-to-end
// by the invariant monitor. Sequential (jobs=1) and threaded runs must
// be bit-identical; the single-queue kernel must agree on the verdicts.
// =====================================================================

namespace {

struct FloodOutcome
{
    std::uint64_t traceHash = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t completions = 0;
    std::uint64_t violations = 0;
    std::int64_t stopNs = 0;
    bool completed = false;

    bool
    operator==(const FloodOutcome& o) const
    {
        return traceHash == o.traceHash && sent == o.sent &&
               delivered == o.delivered && dropped == o.dropped &&
               completions == o.completions &&
               violations == o.violations && stopNs == o.stopNs &&
               completed == o.completed;
    }
};

/**
 * jobs == 0: single-queue kernel; jobs >= 1: island mode. With
 * `via_completions` the wave wait goes through runUntilCompletions
 * instead of an explicit runUntil predicate — the two must be
 * indistinguishable in every deterministic output, including the
 * virtual stop time.
 */
FloodOutcome
runMiniFlood(unsigned jobs, std::uint64_t seed,
             bool via_completions = false)
{
    constexpr std::size_t pairs = 4;
    constexpr std::size_t qpsPerPair = 16;
    constexpr std::size_t opsPerQp = 4;
    constexpr std::uint64_t bytesPerQp = 4096;

    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2 * pairs, seed,
                    net::LinkConfig{}, options);
    chaos::InvariantMonitor monitor(cluster.fabric());

    std::vector<verbs::QueuePair> flows;
    std::vector<verbs::CompletionQueue*> cqs;
    struct Region
    {
        std::uint64_t src, dst;
        std::uint32_t lkey, rkey;
    };
    std::vector<Region> regions;
    for (std::size_t p = 0; p < pairs; ++p) {
        Node& client = cluster.node(2 * p);
        Node& server = cluster.node(2 * p + 1);
        auto& ccq = client.createCq();
        auto& scq = server.createCq();
        cqs.push_back(&ccq);
        const std::uint64_t bytes = qpsPerPair * bytesPerQp;
        const std::uint64_t src = server.alloc(bytes);
        const std::uint64_t dst = client.alloc(bytes);
        auto& smr = server.registerMemory(src, bytes,
                                          verbs::AccessFlags::pinned());
        auto& cmr = client.registerMemory(dst, bytes,
                                          verbs::AccessFlags::odp());
        regions.push_back({src, dst, cmr.lkey(), smr.rkey()});
        for (std::size_t q = 0; q < qpsPerPair; ++q) {
            auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
            flows.push_back(cqp);
        }
    }
    monitor.watchAll(cluster);

    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Region& r = regions[i / qpsPerPair];
        const std::uint64_t base = (i % qpsPerPair) * bytesPerQp;
        for (std::size_t op = 0; op < opsPerQp; ++op)
            flows[i].postRead(r.dst + base + op * 128, r.lkey,
                              r.src + base + op * 128, r.rkey, 100,
                              op + 1);
    }
    const auto completions = [&cqs] {
        std::uint64_t done = 0;
        for (auto* cq : cqs)
            done += cq->totalCompletions();
        return done;
    };
    const std::uint64_t expected = flows.size() * opsPerQp;

    FloodOutcome out;
    // Only clients post, so server CQs stay at zero and the
    // cluster-wide completion count equals the client-CQ sum — both
    // waits see the same value.
    out.completed =
        via_completions
            ? cluster.runUntilCompletions(expected, Time::sec(600))
            : cluster.runUntil(
                      [&] { return completions() >= expected; },
                      Time::sec(600));
    out.stopNs = cluster.now().toNs();
    cluster.advance(Time::ms(1));
    monitor.finalCheck();

    out.traceHash = monitor.traceHash();
    out.sent = cluster.fabric().totalSent();
    out.delivered = cluster.fabric().totalDelivered();
    out.dropped = cluster.fabric().totalDropped();
    out.completions = completions();
    out.violations = monitor.violationCount();
    return out;
}

} // namespace

TEST(ShardedKernel, FloodIsBitIdenticalAcrossWorkerCounts)
{
    const FloodOutcome seq = runMiniFlood(1, 404);
    EXPECT_TRUE(seq.completed);
    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(seq.completions, 4u * 16u * 4u);
    EXPECT_GT(seq.sent, 0u);

    // 8 islands: jobs = 3 splits them into unequal blocks (2/3/3).
    for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
        const FloodOutcome par = runMiniFlood(jobs, 404);
        EXPECT_TRUE(par == seq)
            << "jobs=" << jobs << ": hash " << std::hex << par.traceHash
            << " vs " << seq.traceHash << std::dec << ", sent " << par.sent
            << " vs " << seq.sent << ", completions " << par.completions
            << " vs " << seq.completions;
    }

    // A different seed is a genuinely different run.
    EXPECT_NE(runMiniFlood(1, 405).traceHash, seq.traceHash);
}

namespace {

/**
 * A hot client machine split into planes (addNodePlanes) serving its QP
 * groups from per-plane islands, talking to one server per plane.
 * jobs == 0 runs the identical node/LID topology on the single queue.
 */
FloodOutcome
runPlaneSplitFlood(unsigned jobs, std::uint64_t seed)
{
    constexpr unsigned planeCount = 4;
    constexpr std::size_t qpsPerPlane = 8;
    constexpr std::size_t opsPerQp = 4;
    constexpr std::uint64_t bytesPerQp = 1024;

    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 0, seed,
                    net::LinkConfig{}, options);
    const auto planes = cluster.addNodePlanes(
        rnic::DeviceProfile::connectX4(), planeCount);
    std::vector<Node*> servers;
    for (unsigned p = 0; p < planeCount; ++p)
        servers.push_back(&cluster.addNode());
    chaos::InvariantMonitor monitor(cluster.fabric());

    std::vector<verbs::QueuePair> flows;
    std::vector<verbs::CompletionQueue*> cqs;
    struct Region
    {
        std::uint64_t src, dst;
        std::uint32_t lkey, rkey;
    };
    std::vector<Region> regions;
    for (unsigned p = 0; p < planeCount; ++p) {
        Node& client = *planes[p];
        Node& server = *servers[p];
        auto& ccq = client.createCq();
        auto& scq = server.createCq();
        cqs.push_back(&ccq);
        const std::uint64_t bytes = qpsPerPlane * bytesPerQp;
        const std::uint64_t src = server.alloc(bytes);
        const std::uint64_t dst = client.alloc(bytes);
        auto& smr = server.registerMemory(src, bytes,
                                          verbs::AccessFlags::pinned());
        auto& cmr = client.registerMemory(dst, bytes,
                                          verbs::AccessFlags::pinned());
        regions.push_back({src, dst, cmr.lkey(), smr.rkey()});
        for (std::size_t q = 0; q < qpsPerPlane; ++q) {
            auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
            flows.push_back(cqp);
        }
    }
    monitor.watchAll(cluster);

    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Region& r = regions[i / qpsPerPlane];
        const std::uint64_t base = (i % qpsPerPlane) * bytesPerQp;
        for (std::size_t op = 0; op < opsPerQp; ++op)
            flows[i].postRead(r.dst + base + op * 128, r.lkey,
                              r.src + base + op * 128, r.rkey, 100,
                              op + 1);
    }
    const auto completions = [&cqs] {
        std::uint64_t done = 0;
        for (auto* cq : cqs)
            done += cq->totalCompletions();
        return done;
    };
    const std::uint64_t expected = flows.size() * opsPerQp;

    FloodOutcome out;
    out.completed = cluster.runUntil(
        [&] { return completions() >= expected; }, Time::sec(600));
    cluster.advance(Time::ms(1));
    monitor.finalCheck();

    if (jobs > 0) {
        // KernelStats folds the planes into one logical island: one
        // entry for the split client machine plus one per server, and
        // no events lost in the attribution.
        const auto ks = cluster.shardedKernel()->kernelStats();
        EXPECT_EQ(ks.executedPerIsland.size(), 1u + planeCount);
        std::uint64_t sum = 0;
        for (const std::uint64_t executed : ks.executedPerIsland)
            sum += executed;
        EXPECT_EQ(sum, cluster.shardedKernel()->executed());
        EXPECT_GT(ks.executedPerIsland.front(), 0u);
    }

    out.traceHash = monitor.traceHash();
    out.sent = cluster.fabric().totalSent();
    out.delivered = cluster.fabric().totalDelivered();
    out.dropped = cluster.fabric().totalDropped();
    out.completions = completions();
    out.violations = monitor.violationCount();
    return out;
}

} // namespace

TEST(ShardedKernel, PlaneSplitFloodIsBitIdenticalAcrossSchedules)
{
    const FloodOutcome seq = runPlaneSplitFlood(1, 909);
    EXPECT_TRUE(seq.completed);
    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(seq.completions, 4u * 8u * 4u);

    // 8 islands: at jobs = 3 the planes and their servers straddle
    // unequal blocks.
    for (const unsigned jobs : {2u, 3u, 4u}) {
        const FloodOutcome par = runPlaneSplitFlood(jobs, 909);
        EXPECT_TRUE(par == seq) << "jobs=" << jobs;
    }

    // Identical node/LID topology on the single-queue kernel: the
    // workload outcome (not the schedule) is mode-invariant.
    const FloodOutcome single = runPlaneSplitFlood(0, 909);
    EXPECT_TRUE(single.completed);
    EXPECT_EQ(single.completions, seq.completions);
    EXPECT_EQ(single.violations, 0u);
}

TEST(ShardedKernel, FloodAgreesWithSingleQueueKernelOnVerdicts)
{
    const FloodOutcome single = runMiniFlood(0, 404);
    const FloodOutcome island = runMiniFlood(1, 404);
    // The two kernels schedule differently (island mode is its own
    // deterministic mode), but the workload outcome is mode-invariant:
    // everything completes, the oracle stays clean, nothing is lost.
    EXPECT_TRUE(single.completed);
    EXPECT_TRUE(island.completed);
    EXPECT_EQ(single.completions, island.completions);
    EXPECT_EQ(single.violations, 0u);
    EXPECT_EQ(island.violations, 0u);
    EXPECT_EQ(single.dropped, 0u);
    EXPECT_EQ(island.dropped, 0u);
}

// =====================================================================
// runUntil stop points: a predicate is checked at round boundaries only,
// so where a run stops is a pure function of the simulation at every
// jobs count; a round always runs to its limit, so a quiet round tail
// skips nothing.
// =====================================================================

// The two "TriggerWait" tests keep their historical names: the
// completion wait they cover is runUntilCompletions, which is now
// runUntil with the completion predicate (passing true to runMiniFlood).

TEST(ShardedKernel, TriggerWaitMatchesPollingExactly)
{
    // The island-mode reference is the jobs = 1 explicit-predicate run.
    const FloodOutcome ref = runMiniFlood(1, 511);
    EXPECT_TRUE(ref.completed);
    EXPECT_EQ(ref.violations, 0u);
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        const FloodOutcome pred = runMiniFlood(jobs, 511, false);
        const FloodOutcome wait = runMiniFlood(jobs, 511, true);
        EXPECT_TRUE(pred == ref) << "predicate jobs=" << jobs;
        EXPECT_TRUE(wait == ref)
            << "runUntilCompletions jobs=" << jobs << ": hash " << std::hex
            << wait.traceHash << " vs " << ref.traceHash << std::dec
            << ", stop " << wait.stopNs << " vs " << ref.stopNs
            << ", completions " << wait.completions << " vs "
            << ref.completions;
    }
}

TEST(ShardedKernel, TriggerWaitFallbackMatchesSingleQueuePolling)
{
    // jobs == 0 is the single-queue kernel, polled after every event.
    const FloodOutcome single = runMiniFlood(0, 511);
    const FloodOutcome wait = runMiniFlood(0, 511, true);
    EXPECT_TRUE(wait.completed);
    EXPECT_TRUE(wait == single);
}

namespace {

/**
 * `n` islands in a bidirectional ring, every island retiring one
 * counter tick per window for `ticks` windows, run until the counters
 * sum to `target`. Many islands' ticks land in every round, and a
 * target can be crossed mid-round — the stop point must still be the
 * round boundary at every jobs count.
 */
struct CounterRingRun
{
    std::int64_t stopNs = 0;
    bool hit = false;
    std::uint64_t executed = 0;
};

CounterRingRun
runCounterRing(unsigned jobs, std::uint64_t target)
{
    constexpr std::size_t n = 8;
    constexpr std::uint64_t ticks = 40;

    ShardedKernel kernel(Time::us(1), jobs);
    for (std::size_t i = 0; i < n; ++i)
        kernel.addIsland();
    for (std::size_t i = 0; i < n; ++i) {
        kernel.declareEdge(i, (i + 1) % n);
        kernel.declareEdge((i + 1) % n, i);
    }
    std::deque<std::atomic<std::uint64_t>> counts(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto& count = counts[i];
        count.store(0);
        for (std::uint64_t w = 0; w < ticks; ++w) {
            kernel.island(i).schedule(
                Time::ns(static_cast<std::int64_t>(w) * 1000 + 500),
                [&count] {
                    count.fetch_add(1, std::memory_order_relaxed);
                });
        }
    }

    CounterRingRun out;
    out.hit = kernel.runUntil(
        [&counts, target] {
            std::uint64_t sum = 0;
            for (const auto& c : counts)
                sum += c.load(std::memory_order_relaxed);
            return sum >= target;
        },
        Time::ms(1));
    out.stopNs = kernel.now().toNs();
    out.executed = kernel.executed();
    return out;
}

} // namespace

TEST(ShardedKernel, RunUntilStopsAlikeAcrossWorkerCounts)
{
    // Targets probe a mid-round crossing and a round-boundary crossing.
    for (const std::uint64_t target : {37ull, 8ull * 16ull, 8ull * 39ull}) {
        const CounterRingRun ref = runCounterRing(1, target);
        EXPECT_TRUE(ref.hit) << "target=" << target;
        for (const unsigned jobs : {2u, 3u, 4u}) {
            const CounterRingRun run = runCounterRing(jobs, target);
            EXPECT_TRUE(run.hit);
            EXPECT_EQ(run.stopNs, ref.stopNs)
                << "jobs=" << jobs << " target=" << target;
            EXPECT_EQ(run.executed, ref.executed)
                << "jobs=" << jobs << " target=" << target;
        }
    }

    // Unreachable target: every run drains before the limit and
    // reports false, with every event executed, at the same stop time.
    const CounterRingRun ref = runCounterRing(1, 10000);
    EXPECT_FALSE(ref.hit);
    EXPECT_EQ(ref.executed, 8u * 40u);
    for (const unsigned jobs : {2u, 3u, 4u}) {
        const CounterRingRun run = runCounterRing(jobs, 10000);
        EXPECT_FALSE(run.hit) << "jobs=" << jobs;
        EXPECT_EQ(run.executed, 8u * 40u) << "jobs=" << jobs;
        EXPECT_EQ(run.stopNs, ref.stopNs) << "jobs=" << jobs;
    }
}

TEST(ShardedKernel, RunUntilAlreadyMetDoesNotAdvance)
{
    // Work retired before the call counts: after a partial run, a
    // predicate that already holds returns satisfied without advancing
    // virtual time or executing anything.
    ShardedKernel kernel(Time::us(1), 2);
    kernel.addIsland();
    kernel.addIsland();
    std::deque<std::atomic<std::uint64_t>> counts(2);
    counts[0].store(0);
    counts[1].store(0);
    for (std::size_t i = 0; i < 2; ++i) {
        for (int w = 0; w < 8; ++w) {
            auto& count = counts[i];
            kernel.island(i).schedule(Time::us(w), [&count] {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    EXPECT_FALSE(kernel.run(Time::us(3)));  // events remain past 3 us
    const auto sum = [&counts] {
        return counts[0].load() + counts[1].load();
    };
    const std::uint64_t before = sum();
    EXPECT_GE(before, 2u);

    const Time at = kernel.now();
    const std::uint64_t executed = kernel.executed();
    const std::uint64_t rounds = kernel.kernelStats().barriers;
    EXPECT_TRUE(kernel.runUntil([&] { return sum() >= before; },
                                Time::ms(1)));
    EXPECT_EQ(kernel.now(), at);
    EXPECT_EQ(kernel.executed(), executed);
    EXPECT_EQ(kernel.kernelStats().barriers, rounds);

    // And a later target drains the rest normally.
    EXPECT_TRUE(kernel.runUntil([&] { return sum() >= 16; }, Time::ms(1)));
    EXPECT_EQ(sum(), 16u);
}

TEST(ShardedKernel, QuietTailRunsEveryEvent)
{
    // 64-island bidirectional ring with all events in the round's first
    // window: once they retire, the rest of the round is pure
    // null-message leapfrogging with nothing underneath. The round runs
    // that tail to its limit; every event runs and nothing is left.
    // jobs = 3 splits the 64 islands into unequal blocks.
    for (const unsigned jobs : {1u, 3u, 4u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        constexpr std::size_t n = 64;
        for (std::size_t i = 0; i < n; ++i)
            kernel.addIsland();
        for (std::size_t i = 0; i < n; ++i) {
            kernel.declareEdge(i, (i + 1) % n);
            kernel.declareEdge((i + 1) % n, i);
        }
        std::atomic<std::uint64_t> ran{0};
        for (std::size_t i = 0; i < n; ++i)
            kernel.island(i).schedule(
                Time::ns(static_cast<std::int64_t>(i) * 10),
                [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        EXPECT_TRUE(kernel.run()) << "jobs=" << jobs;
        EXPECT_EQ(ran.load(), n) << "jobs=" << jobs;
        EXPECT_EQ(kernel.executed(), n) << "jobs=" << jobs;
        EXPECT_EQ(kernel.pending(), 0u) << "jobs=" << jobs;
    }
}
