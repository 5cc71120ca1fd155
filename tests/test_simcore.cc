/**
 * @file
 * Unit tests of the simulation kernel: Time, EventQueue, Rng and the
 * statistics toolkit.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/inline_function.hh"
#include "simcore/log.hh"
#include "simcore/rng.hh"
#include "simcore/stats.hh"
#include "simcore/time.hh"

using namespace ibsim;

TEST(TimeTest, UnitConstructorsAgree)
{
    EXPECT_EQ(Time::us(1).toNs(), 1000);
    EXPECT_EQ(Time::ms(1).toNs(), 1000000);
    EXPECT_EQ(Time::sec(1).toNs(), 1000000000);
    EXPECT_EQ(Time::ms(1.28).toNs(), 1280000);
    EXPECT_DOUBLE_EQ(Time::ms(250).toSec(), 0.25);
}

TEST(TimeTest, ArithmeticAndComparisons)
{
    const Time a = Time::us(10);
    const Time b = Time::us(4);
    EXPECT_EQ((a + b).toNs(), 14000);
    EXPECT_EQ((a - b).toNs(), 6000);
    EXPECT_EQ((a * 2.5).toNs(), 25000);
    EXPECT_EQ((a / 2.0).toNs(), 5000);
    EXPECT_DOUBLE_EQ(a.ratio(b), 2.5);
    EXPECT_LT(b, a);
    EXPECT_GT(Time::max(), Time::sec(1e6));

    Time c = a;
    c += b;
    EXPECT_EQ(c, Time::us(14));
    c -= a;
    EXPECT_EQ(c, b);
}

TEST(TimeTest, StringPicksReadableUnit)
{
    EXPECT_EQ(Time::ns(12).str(), "12 ns");
    EXPECT_NE(Time::us(3.5).str().find("us"), std::string::npos);
    EXPECT_NE(Time::ms(7).str().find("ms"), std::string::npos);
    EXPECT_NE(Time::sec(2).str().find("s"), std::string::npos);
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(Time::us(3), [&] { order.push_back(3); });
    q.schedule(Time::us(1), [&] { order.push_back(1); });
    q.schedule(Time::us(2), [&] { order.push_back(2); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), Time::us(3));
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, SameTimeIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(Time::us(5), [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    auto h = q.schedule(Time::us(1), [&] { ++fired; });
    q.schedule(Time::us(2), [&] { ++fired; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));  // double cancel is a no-op
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelFromInsideAnEvent)
{
    EventQueue q;
    int fired = 0;
    EventHandle later;
    q.schedule(Time::us(1), [&] { q.cancel(later); });
    later = q.schedule(Time::us(2), [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, RunHonorsLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(Time::us(1), [&] { ++fired; });
    q.schedule(Time::ms(1), [&] { ++fired; });
    EXPECT_FALSE(q.run(Time::us(10)));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), Time::us(10));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_TRUE(q.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, AdvanceLandsExactlyOnTarget)
{
    EventQueue q;
    int fired = 0;
    q.schedule(Time::us(7), [&] { ++fired; });
    q.advance(Time::us(3));
    EXPECT_EQ(q.now(), Time::us(3));
    EXPECT_EQ(fired, 0);
    q.advance(Time::us(10));
    EXPECT_EQ(q.now(), Time::us(13));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, RunUntilStopsAtPredicate)
{
    EventQueue q;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        q.schedule(Time::us(i), [&] { ++count; });
    EXPECT_TRUE(q.runUntil([&] { return count == 4; }));
    EXPECT_EQ(count, 4);
    EXPECT_EQ(q.now(), Time::us(4));
    // Predicate never satisfied: drains and reports failure.
    EXPECT_FALSE(q.runUntil([&] { return count == 99; }));
    EXPECT_EQ(count, 10);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recur = [&] {
        if (++depth < 5)
            q.scheduleAfter(Time::us(1), recur);
    };
    q.scheduleAfter(Time::us(1), recur);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), Time::us(5));
}

TEST(EventQueueTest, CancelAfterExecuteIsBoundedNoOp)
{
    // Regression: the old kernel leaked one cancelled_-set entry per
    // cancel of an already-executed handle (and corrupted pending()).
    // With generation-counted handles the call is a pure O(1) no-op.
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(10000);
    int fired = 0;
    for (int i = 0; i < 10000; ++i)
        handles.push_back(q.schedule(Time::ns(i), [&] { ++fired; }));
    q.run();
    ASSERT_EQ(fired, 10000);

    const auto before = q.kernelStats();
    for (auto& h : handles)
        EXPECT_FALSE(q.cancel(h));
    const auto after = q.kernelStats();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(after.poolNodes, before.poolNodes);
    EXPECT_EQ(after.freeNodes, after.poolNodes);  // everything reclaimed
    EXPECT_EQ(after.cancelledTotal, before.cancelledTotal);

    // And the queue still works normally afterwards.
    q.scheduleAfter(Time::ns(1), [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 10001);
}

TEST(EventQueueTest, HandleGenerationsPreventAliasedCancel)
{
    EventQueue q;
    int later = 0;
    auto stale = q.schedule(Time::ns(10), [] {});
    q.run();
    // The next schedule recycles the executed event's pool slot; the
    // stale handle's generation no longer matches and must not cancel it.
    q.schedule(Time::ns(20), [&] { ++later; });
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(later, 1);
}

TEST(EventQueueTest, CancelledTimersAreCompacted)
{
    // Far-future timers that get cancelled must not pin pool slots until
    // their distant expiry: once cancelled entries dominate the heap it
    // is compacted.
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(5000);
    for (int i = 0; i < 5000; ++i)
        handles.push_back(q.schedule(Time::sec(100 + i), [] {}));
    for (auto& h : handles)
        EXPECT_TRUE(q.cancel(h));
    const auto stats = q.kernelStats();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_LE(stats.heapNodes, 1500u);  // compaction dropped the bulk
    EXPECT_GE(stats.freeNodes, 3500u);
}

TEST(EventQueueTest, OrderPreservedFromNanosecondsToMinutes)
{
    // Delays from 5 ns to 120 s, interleaved and repeated; execution
    // order must be exactly (time, insertion order).
    EventQueue q;
    const std::array<std::int64_t, 12> ns = {
        5,            3000,         1000000,      500000000,
        10000000000,  5,            3000,         120000000000,
        1000000,      500000000,    10000000000,  5,
    };
    std::vector<std::pair<std::int64_t, int>> order;
    for (int i = 0; i < static_cast<int>(ns.size()); ++i) {
        q.schedule(Time::ns(ns[i]),
                   [&order, t = ns[i], i] { order.emplace_back(t, i); });
    }
    q.run();
    auto expected = [&] {
        std::vector<std::pair<std::int64_t, int>> v;
        for (int i = 0; i < static_cast<int>(ns.size()); ++i)
            v.emplace_back(ns[i], i);
        std::stable_sort(v.begin(), v.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        return v;
    }();
    EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SameTimeFifoForFarAndNearSchedules)
{
    // Two events at the same instant, one scheduled 5 s ahead and one
    // scheduled 100 ms ahead by an event that ran later: insertion order
    // must win.
    EventQueue q;
    std::vector<int> order;
    const Time t = Time::sec(5);
    q.schedule(t, [&] { order.push_back(1); });
    q.schedule(Time::sec(4.9), [&, t] {
        q.schedule(t, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(InlineFunctionTest, InlineAndHeapFallbackBothWork)
{
    int calls = 0;
    auto small = [&calls] { ++calls; };
    static_assert(InlineFunction<48>::storesInline<decltype(small)>);
    InlineFunction<48> f(small);
    EXPECT_TRUE(static_cast<bool>(f));
    f();
    EXPECT_EQ(calls, 1);

    std::array<char, 128> big{};
    big[0] = 7;
    auto large = [big, &calls] { calls += big[0]; };
    static_assert(!InlineFunction<48>::storesInline<decltype(large)>);
    InlineFunction<48> g(large);
    g();
    EXPECT_EQ(calls, 8);

    InlineFunction<48> h = std::move(g);
    EXPECT_FALSE(static_cast<bool>(g));
    ASSERT_TRUE(static_cast<bool>(h));
    h();
    EXPECT_EQ(calls, 15);
}

TEST(InlineFunctionTest, CaptureDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(0);
    {
        InlineFunction<48> f([token] {});
        EXPECT_EQ(token.use_count(), 2);
        InlineFunction<48> g = std::move(f);  // move, not copy
        EXPECT_EQ(token.use_count(), 2);
        g.reset();
        EXPECT_EQ(token.use_count(), 1);
        g.reset();  // double reset is harmless
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunctionTest, HotPathCapturesStayInline)
{
    // The shapes every simulator hot path schedules: a couple of
    // pointers and integers. These must never take the heap branch.
    struct Host
    {
        void fire() {}
    } host;
    std::uint32_t idx = 0;
    std::uint64_t a = 0, b = 0;
    auto timer = [&host] { host.fire(); };
    auto pooled = [&host, idx] { (void)idx; host.fire(); };
    auto ranged = [&host, a, b] { (void)a, (void)b; host.fire(); };
    static_assert(EventQueue::Callback::storesInline<decltype(timer)>);
    static_assert(EventQueue::Callback::storesInline<decltype(pooled)>);
    static_assert(EventQueue::Callback::storesInline<decltype(ranged)>);
    EventQueue q;
    q.scheduleAfter(Time::ns(1), timer);
    q.scheduleAfter(Time::ns(2), pooled);
    q.scheduleAfter(Time::ns(3), ranged);
    EXPECT_TRUE(q.run());
}

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, ReseedRestartsSequence)
{
    Rng a(5);
    const double first = a.uniform(0, 1);
    a.uniform(0, 1);
    a.reseed(5);
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), first);
}

TEST(RngTest, RangesRespected)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
        const auto n = rng.uniformInt(-3, 3);
        EXPECT_GE(n, -3);
        EXPECT_LE(n, 3);
        const Time t = rng.uniformTime(Time::us(250), Time::us(1000));
        EXPECT_GE(t, Time::us(250));
        EXPECT_LT(t, Time::us(1000));
    }
}

TEST(RngTest, JitterStaysWithinSpread)
{
    Rng rng(1);
    const Time base = Time::ms(1);
    for (int i = 0; i < 1000; ++i) {
        const Time t = rng.jitter(base, 0.1);
        EXPECT_GE(t.toNs(), 900000);
        EXPECT_LE(t.toNs(), 1100000);
    }
}

TEST(RngTest, DegenerateTimeRange)
{
    Rng rng(1);
    EXPECT_EQ(rng.uniformTime(Time::us(5), Time::us(5)), Time::us(5));
    EXPECT_EQ(rng.uniformTime(Time::us(5), Time::us(3)), Time::us(5));
}

TEST(AccumulatorTest, SummaryStatistics)
{
    Accumulator acc;
    EXPECT_TRUE(acc.empty());
    for (double v : {4.0, 1.0, 3.0, 2.0, 5.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 5u);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_DOUBLE_EQ(acc.median(), 3.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
    EXPECT_NEAR(acc.stddev(), 1.5811, 1e-3);
    EXPECT_DOUBLE_EQ(acc.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(acc.percentile(100), 5.0);
    EXPECT_DOUBLE_EQ(acc.percentile(50), 3.0);
}

TEST(AccumulatorTest, AddAfterSortKeepsCorrectness)
{
    Accumulator acc;
    acc.add(10.0);
    EXPECT_DOUBLE_EQ(acc.min(), 10.0);  // forces a sort
    acc.add(1.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 10.0);
}

TEST(HistogramTest, BucketsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bucket 0
    h.add(9.9);   // bucket 4
    h.add(-3.0);  // clamped to 0
    h.add(42.0);  // clamped to 4
    h.add(5.0);   // bucket 2
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.count(4), 2u);
    EXPECT_DOUBLE_EQ(h.bucketLo(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(1), 4.0);
    EXPECT_FALSE(h.str().empty());
}

namespace {
log::Component logXyzzy("xyzzy");
log::Component logAnything("anything");
} // namespace

TEST(LogTest, EnableDisable)
{
    EXPECT_FALSE(logXyzzy.enabled());
    log::enable("xyzzy");
    EXPECT_TRUE(logXyzzy.enabled());
    EXPECT_FALSE(logAnything.enabled());
    log::disableAll();
    EXPECT_FALSE(logXyzzy.enabled());
    log::enable("*");
    EXPECT_TRUE(logAnything.enabled());
    log::disableAll();
}

TEST(LogTest, LateHandleSeesEarlierEnable)
{
    log::enable("late");
    static log::Component logLate("late");
    EXPECT_TRUE(logLate.enabled());
    log::disableAll();
    EXPECT_FALSE(logLate.enabled());
}
