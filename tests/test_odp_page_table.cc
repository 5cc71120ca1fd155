/**
 * @file
 * Deterministic unit suite for the ODP per-page state machine
 * (DESIGN.md section 14): every legal transition including
 * FaultingInvalidated, the MMU-notifier two-phase invalidation windows,
 * huge-page mapping, prefetch policies, the legality check at every
 * entry point, and the regressions for the three historical races (stale
 * invalidate clobber, prefetch double-population, and the slow-queue dead
 * keys).
 */

#include <gtest/gtest.h>

#include "mem/address_space.hh"
#include "odp/odp_driver.hh"
#include "odp/page_status_board.hh"
#include "odp/page_table.hh"
#include "odp/translation_table.hh"

using namespace ibsim;
using namespace ibsim::mem;
using namespace ibsim::odp;

TEST(OdpPageTable, LegalEdgeTable)
{
    using S = PageState;
    EXPECT_TRUE(pageTransitionLegal(S::NotPresent, S::Faulting));
    EXPECT_TRUE(pageTransitionLegal(S::NotPresent, S::Invalidating));
    EXPECT_FALSE(pageTransitionLegal(S::NotPresent, S::Present));
    EXPECT_FALSE(pageTransitionLegal(S::NotPresent,
                                     S::FaultingInvalidated));

    EXPECT_TRUE(pageTransitionLegal(S::Faulting, S::Present));
    EXPECT_TRUE(pageTransitionLegal(S::Faulting, S::FaultingInvalidated));
    EXPECT_FALSE(pageTransitionLegal(S::Faulting, S::Invalidating));
    EXPECT_FALSE(pageTransitionLegal(S::Faulting, S::NotPresent));

    EXPECT_TRUE(pageTransitionLegal(S::Present, S::Invalidating));
    EXPECT_FALSE(pageTransitionLegal(S::Present, S::Faulting));
    EXPECT_FALSE(pageTransitionLegal(S::Present, S::FaultingInvalidated));

    EXPECT_TRUE(pageTransitionLegal(S::Invalidating, S::NotPresent));
    EXPECT_TRUE(pageTransitionLegal(S::Invalidating, S::Faulting));
    EXPECT_FALSE(pageTransitionLegal(S::Invalidating, S::Present));

    EXPECT_TRUE(pageTransitionLegal(S::FaultingInvalidated, S::Faulting));
    EXPECT_FALSE(pageTransitionLegal(S::FaultingInvalidated, S::Present));
    EXPECT_FALSE(pageTransitionLegal(S::FaultingInvalidated,
                                     S::NotPresent));

    EXPECT_STREQ(pageStateName(S::FaultingInvalidated),
                 "FaultingInvalidated");
}

// Every edge passes one legality check, from the page's real state: an
// illegal edge asserts, and with NDEBUG it is refused, counted and
// changes nothing.
TEST(OdpPageTable, IllegalEdgesAreRefusedAtEveryEntryPoint)
{
    using S = PageState;
    OdpPageTable pages;
    TranslationTable table{/*odp=*/true};
    const std::uint64_t key = 7;
    const std::uint64_t other = 8;
    table.mapPage(other * pageSize);  // Present, installed without a fault
    ASSERT_NE(pages.move(table, key, S::Faulting), nullptr);

    EXPECT_DEBUG_DEATH(pages.move(table, other, S::Faulting),
                       "illegal page transition");
    EXPECT_DEBUG_DEATH(pages.move(table, key, S::Invalidating),
                       "illegal page transition");
    EXPECT_DEBUG_DEATH(pages.move(table, key, S::NotPresent),
                       "illegal page transition");
#ifdef NDEBUG
    EXPECT_EQ(pages.stats().illegalTransitionsBlocked, 3u);
#else
    EXPECT_EQ(pages.stats().illegalTransitionsBlocked, 0u);
#endif
    EXPECT_EQ(pages.stats().transitions, 1u);
    EXPECT_EQ(table.state(other), S::Present);
    EXPECT_EQ(table.state(key), S::Faulting);

    pages.move(table, key, S::Present);
    EXPECT_EQ(table.state(key), S::Present);
    EXPECT_EQ(pages.stats().transitions, 2u);
}

namespace {

/** Tight latency band so resolution times are predictable. */
struct PageMachineFixture : public ::testing::Test
{
    EventQueue events;
    Rng rng{1};
    AddressSpace memory;
    FaultTiming timing;
    TranslationTable table{/*odp=*/true};

    PageMachineFixture()
    {
        timing.faultLatencyMin = Time::us(500);
        timing.faultLatencyMax = Time::us(501);
    }
};

} // namespace

TEST_F(PageMachineFixture, FaultWalksNotPresentFaultingPresent)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    EXPECT_EQ(table.state(pageOf(va)), PageState::NotPresent);

    driver.raiseFault(table, va);
    EXPECT_EQ(table.state(pageOf(va)), PageState::Faulting);
    EXPECT_TRUE(transientState(table.state(pageOf(va))));

    events.run();
    EXPECT_EQ(table.state(pageOf(va)), PageState::Present);
    EXPECT_FALSE(transientState(table.state(pageOf(va))));
    EXPECT_TRUE(table.mappedPage(va));
    EXPECT_GE(driver.pageTable().stats().transitions, 2u);
    EXPECT_EQ(driver.pageTable().stats().illegalTransitionsBlocked, 0u);
}

// A fault on a Present page has nothing to resolve: it opens no
// record, counts no fault and runs its callback from an event now.
TEST_F(PageMachineFixture, FaultOnPresentPageRaisesNothing)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    driver.raiseFault(table, va);
    events.run();
    ASSERT_TRUE(table.mappedPage(va));

    const Time now = events.now();
    int callbacks = 0;
    EXPECT_EQ(driver.raiseFault(table, va, [&] { ++callbacks; }), now);
    EXPECT_EQ(callbacks, 0);  // never inline
    EXPECT_EQ(table.state(pageOf(va)), PageState::Present);
    EXPECT_TRUE(table.mappedPage(va));
    EXPECT_FALSE(driver.faultInFlight(table, va));

    events.run();
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(events.now(), now);
    EXPECT_EQ(driver.stats().faultsRaised, 1u);
    EXPECT_EQ(driver.stats().faultsResolved, 1u);
}

// state, mappedPage, faultInFlight and transientState read one record,
// so they agree on pages mid-fault, inside a notifier window and in a
// doomed fault's retry.
TEST_F(PageMachineFixture, QueriesAgreeOnTransientPages)
{
    using S = PageState;
    OdpDriver driver(events, rng, memory, timing);
    const auto agree = [&](std::uint64_t page, S state, bool in_flight) {
        const std::uint64_t va = page * pageSize;
        EXPECT_EQ(table.state(pageOf(va)), state) << page;
        EXPECT_EQ(table.mappedPage(va), state == S::Present) << page;
        EXPECT_EQ(transientState(table.state(pageOf(va))),
                  transientState(state))
            << page;
        EXPECT_EQ(driver.faultInFlight(table, va), in_flight) << page;
    };

    driver.raiseFault(table, 8 * pageSize);
    events.run();
    agree(8, S::Present, false);

    driver.raiseFault(table, 7 * pageSize);
    driver.raiseFault(table, 9 * pageSize);
    driver.invalidate(table, 8 * pageSize);
    driver.invalidate(table, 9 * pageSize);
    agree(7, S::Faulting, true);
    agree(8, S::Invalidating, false);
    agree(9, S::FaultingInvalidated, true);

    // A fault inside page 8's window queues behind it.
    driver.raiseFault(table, 8 * pageSize);
    agree(8, S::Invalidating, true);

    // Past the 30us windows: page 9's doomed fault retries and page 8's
    // queued fault starts resolving.
    events.schedule(events.now() + Time::us(40), [&] {
        agree(7, S::Faulting, true);
        agree(8, S::Faulting, true);
        agree(9, S::Faulting, true);
    });
    events.run();
    for (std::uint64_t page = 7; page <= 9; ++page)
        agree(page, S::Present, false);
    EXPECT_EQ(driver.stats().faultRetries, 1u);
    EXPECT_EQ(driver.stats().faultsQueuedBehindWindow, 1u);
    EXPECT_EQ(table.mappedPages(), 3u);
}

TEST_F(PageMachineFixture, InvalidateStartFlushesTranslationImmediately)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    driver.raiseFault(table, va);
    events.run();
    ASSERT_TRUE(table.mappedPage(va));
    ASSERT_TRUE(memory.present(va));

    // invalidate_start: the RNIC translation dies now; the host frame
    // survives until invalidate_end closes the window.
    driver.invalidate(table, va);
    EXPECT_FALSE(table.mappedPage(va));
    EXPECT_TRUE(memory.present(va));
    EXPECT_EQ(table.state(pageOf(va)), PageState::Invalidating);

    events.run();
    EXPECT_FALSE(memory.present(va));
    EXPECT_EQ(table.state(pageOf(va)), PageState::NotPresent);
    EXPECT_EQ(driver.stats().notifierWindows, 1u);
}

TEST_F(PageMachineFixture, InvalidateOfUnmappedPageStillOpensWindow)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 3 * pageSize;
    driver.invalidate(table, va);
    // NotPresent -> Invalidating: concurrent faults must serialize
    // behind the window even though there was nothing to unmap.
    EXPECT_EQ(table.state(pageOf(va)), PageState::Invalidating);
    events.run();
    EXPECT_EQ(table.state(pageOf(va)), PageState::NotPresent);
    EXPECT_EQ(driver.stats().notifierWindows, 1u);
}

TEST_F(PageMachineFixture, InvalidationMidFaultDoomsAndRetries)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    int callbacks = 0;
    driver.raiseFault(table, va, [&] { ++callbacks; });

    // invalidate_start lands mid-fault at 100us: the in-flight
    // resolution (due ~500us) is doomed and must not install a mapping.
    events.schedule(Time::us(100), [&] {
        driver.invalidate(table, va);
        EXPECT_EQ(table.state(pageOf(va)),
                  PageState::FaultingInvalidated);
    });
    // At 510us — past the original resolveAt — the doomed resolution
    // must have been discarded: still no mapping, callback unfired.
    events.schedule(Time::us(510), [&] {
        EXPECT_FALSE(table.mappedPage(va));
        EXPECT_EQ(callbacks, 0);
        EXPECT_EQ(table.state(pageOf(va)), PageState::Faulting);
    });

    events.run();
    // The retry (130us window end + ~500us draw) resolved for real.
    EXPECT_EQ(callbacks, 1);
    EXPECT_TRUE(table.mappedPage(va));
    EXPECT_EQ(driver.stats().faultRetries, 1u);
    EXPECT_EQ(driver.stats().faultsResolved, 1u);
    EXPECT_NEAR(events.now().toUs(), 630.0, 5.0);
}

// Regression: a doomed fault's resolve event used to stay scheduled and
// be ignored by an epoch check. The epochs restarted with every transient
// episode of the page, so the first episode's stale event (due 4000us)
// completed a later episode's fault (due 5200us) early. invalidate_start
// now cancels the event.
TEST_F(PageMachineFixture, StaleResolveEventCannotCompleteLaterEpisode)
{
    timing.faultLatencyMin = Time::us(1000);
    timing.faultLatencyMax = Time::us(1000);
    OdpDriver driver(events, rng, memory, timing);
    int draws = 0;
    driver.setCongestionProbe([&draws] {
        ++draws;
        return draws == 1 || draws == 3 ? 4.0 : 1.0;
    });
    const std::uint64_t va = 7 * pageSize;

    EXPECT_DOUBLE_EQ(driver.raiseFault(table, va).toUs(), 4000.0);
    // Dooms the fault; the retry resolves at 40 + 1000us.
    events.schedule(Time::us(10), [&] { driver.invalidate(table, va); });
    events.schedule(Time::us(1100), [&] {
        ASSERT_EQ(table.state(pageOf(va)), PageState::Present);
        driver.invalidate(table, va);
    });
    Time resolved_at;
    events.schedule(Time::us(1200), [&] {
        ASSERT_EQ(table.state(pageOf(va)), PageState::NotPresent);
        const Time due =
            driver.raiseFault(table, va, [&] { resolved_at = events.now(); });
        EXPECT_DOUBLE_EQ(due.toUs(), 5200.0);
    });

    events.run();
    EXPECT_DOUBLE_EQ(resolved_at.toUs(), 5200.0);
    EXPECT_EQ(driver.stats().faultsResolved, 2u);
    EXPECT_EQ(draws, 3);
}

TEST_F(PageMachineFixture, FaultDuringWindowQueuesBehindIt)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    driver.raiseFault(table, va);
    events.run();
    ASSERT_TRUE(table.mappedPage(va));

    int callbacks = 0;
    const Time start = events.now();
    driver.invalidate(table, va);
    // A fault inside the notifier window queues behind invalidate_end
    // (Invalidating -> Faulting at window close), like the kernel's
    // mmu_interval_read_retry loop.
    const Time eta = driver.raiseFault(table, va, [&] { ++callbacks; });
    EXPECT_TRUE(driver.faultInFlight(table, va));
    EXPECT_GE(eta - start, Time::us(30) + Time::us(500));

    events.run();
    EXPECT_EQ(callbacks, 1);
    EXPECT_TRUE(table.mappedPage(va));
    EXPECT_EQ(driver.stats().faultsQueuedBehindWindow, 1u);
    EXPECT_EQ(driver.stats().faultsResolved, 2u);
    EXPECT_GE(events.now() - start, Time::us(530));
}

TEST_F(PageMachineFixture, SecondInvalidationExtendsOpenWindow)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    driver.raiseFault(table, va);
    events.run();

    driver.invalidate(table, va);              // window: now .. +30us
    events.schedule(events.now() + Time::us(10), [&] {
        driver.invalidate(table, va);          // extends to +40us
    });
    // At +35us the original end has passed but the extension holds the
    // host frame.
    events.schedule(events.now() + Time::us(35), [&] {
        EXPECT_TRUE(memory.present(va));
        EXPECT_EQ(table.state(pageOf(va)), PageState::Invalidating);
    });
    events.run();
    EXPECT_FALSE(memory.present(va));
    EXPECT_EQ(driver.stats().invalidationsCoalesced, 1u);
    EXPECT_EQ(driver.stats().notifierWindows, 1u);
}

// Regression: invalidate() used to schedule a blind unmap with no
// knowledge of in-flight faults, so an invalidation scheduled before a
// fault resolved fired after the resolution (at ~520us) and silently
// clobbered the freshly mapped page. Fixed-seed interleaving.
TEST_F(PageMachineFixture, StaleInvalidateClobberFixedByStateMachine)
{
    EventQueue ev;
    Rng r{42};
    AddressSpace mem;
    TranslationTable t{/*odp=*/true};
    OdpDriver driver(ev, r, mem, timing);

    const std::uint64_t va = 7 * pageSize;
    int callbacks = 0;
    driver.raiseFault(t, va, [&] { ++callbacks; }); // resolves ~500us
    ev.schedule(Time::us(490), [&] { driver.invalidate(t, va); });
    ev.run();

    // invalidate_start dooms the fault, the retry resolves after the
    // window, and the mapping survives.
    EXPECT_EQ(callbacks, 1);
    EXPECT_TRUE(t.mappedPage(va));
    EXPECT_TRUE(mem.present(va));
    EXPECT_EQ(driver.stats().faultRetries, 1u);
    EXPECT_EQ(t.state(pageOf(va)), PageState::Present);
}

// Regression: the prefetch sweep re-checked mappedPage but not the fault
// table, so a prefetch firing before a concurrent fault's resolution
// populated the page and then resolve() populated it again — both
// counters claimed the page and the observer fired twice.
TEST_F(PageMachineFixture, PrefetchFaultDoublePopulationFixed)
{
    EventQueue ev;
    Rng r{42};
    AddressSpace mem;
    TranslationTable t{/*odp=*/true};
    OdpDriver driver(ev, r, mem, timing);

    int observed = 0;
    driver.setResolutionObserver(
        [&](TranslationTable&, std::uint64_t) { ++observed; });

    const std::uint64_t va = 7 * pageSize;
    driver.raiseFault(t, va);       // resolves ~500us
    driver.prefetch(t, va, 1);      // sweep fires at 15us, mid-fault
    ev.run();

    EXPECT_TRUE(t.mappedPage(va));
    EXPECT_EQ(driver.stats().faultsResolved, 1u);
    EXPECT_EQ(driver.stats().prefetchedPages, 0u);
    EXPECT_EQ(driver.stats().prefetchSkippedBusy, 1u);
    EXPECT_EQ(observed, 1);
}

TEST_F(PageMachineFixture, PrefetchSkipsOpenWindows)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 7 * pageSize;
    driver.raiseFault(table, va);
    events.run();

    driver.invalidate(table, va);
    ASSERT_EQ(table.state(pageOf(va)), PageState::Invalidating);
    // An advise inside the window must not resurrect the mapping behind
    // invalidate_start's back.
    driver.prefetch(table, va, 1);
    events.run();
    EXPECT_FALSE(table.mappedPage(va));
    EXPECT_EQ(driver.stats().prefetchedPages, 0u);
    EXPECT_EQ(driver.stats().prefetchSkippedBusy, 1u);
}

TEST_F(PageMachineFixture, HugePageFaultMapsAlignedBlock)
{
    timing.hugePages = true;
    timing.hugePageSpan = 4;
    OdpDriver driver(events, rng, memory, timing);

    driver.raiseFault(table, 5 * pageSize);
    events.run();
    // One fault installed the whole aligned block [4, 8).
    for (std::uint64_t p = 4; p < 8; ++p) {
        EXPECT_TRUE(table.mappedPage(p * pageSize)) << p;
        EXPECT_TRUE(memory.present(p * pageSize)) << p;
    }
    EXPECT_FALSE(table.mappedPage(3 * pageSize));
    EXPECT_FALSE(table.mappedPage(8 * pageSize));
    EXPECT_EQ(driver.stats().hugeMappings, 1u);
    EXPECT_EQ(driver.stats().hugePagesMapped, 3u);
    EXPECT_EQ(driver.stats().faultsResolved, 1u);
}

TEST_F(PageMachineFixture, HugePageInvalidateSplitsBlock)
{
    timing.hugePages = true;
    timing.hugePageSpan = 4;
    OdpDriver driver(events, rng, memory, timing);

    driver.raiseFault(table, 5 * pageSize);
    events.run();
    ASSERT_EQ(table.mappedPages(), 4u);

    // Reclaiming any page of the block unmaps the whole aligned block.
    driver.invalidate(table, 6 * pageSize);
    for (std::uint64_t p = 4; p < 8; ++p)
        EXPECT_FALSE(table.mappedPage(p * pageSize)) << p;
    events.run();
    for (std::uint64_t p = 4; p < 8; ++p)
        EXPECT_FALSE(memory.present(p * pageSize)) << p;
    EXPECT_EQ(driver.stats().notifierWindows, 4u);
}

TEST_F(PageMachineFixture, FixedWidthPolicyPrefetchesAhead)
{
    timing.prefetchPolicy = PrefetchPolicy::FixedWidth;
    timing.prefetchWidth = 4;
    OdpDriver driver(events, rng, memory, timing);

    driver.raiseFault(table, 10 * pageSize);
    events.run();
    // The fault mapped page 10; the policy pre-resolved 11..14.
    for (std::uint64_t p = 10; p <= 14; ++p)
        EXPECT_TRUE(table.mappedPage(p * pageSize)) << p;
    EXPECT_FALSE(table.mappedPage(15 * pageSize));
    EXPECT_EQ(driver.stats().autoPrefetches, 1u);
    EXPECT_EQ(driver.stats().prefetchedPages, 4u);
    EXPECT_EQ(driver.stats().faultsResolved, 1u);
}

TEST_F(PageMachineFixture, SequentialDetectNeedsConsecutiveFaults)
{
    timing.prefetchPolicy = PrefetchPolicy::SequentialDetect;
    timing.prefetchWidth = 4;
    OdpDriver driver(events, rng, memory, timing);

    driver.raiseFault(table, 10 * pageSize);
    events.run();
    // A single fault is not a stream: nothing prefetched.
    EXPECT_EQ(driver.stats().autoPrefetches, 0u);
    EXPECT_FALSE(table.mappedPage(11 * pageSize));

    driver.raiseFault(table, 11 * pageSize);
    events.run();
    // Two consecutive faulting pages: the detector arms and fetches
    // 12..15 ahead.
    EXPECT_EQ(driver.stats().autoPrefetches, 1u);
    for (std::uint64_t p = 12; p <= 15; ++p)
        EXPECT_TRUE(table.mappedPage(p * pageSize)) << p;

    driver.raiseFault(table, 40 * pageSize);
    events.run();
    // A non-consecutive fault resets the streak.
    EXPECT_EQ(driver.stats().autoPrefetches, 1u);
    EXPECT_FALSE(table.mappedPage(41 * pageSize));
}

// ---------------------------------------------------------------------
// Status board: the slow-queue dead-key fix.
// ---------------------------------------------------------------------

// Regression: a waiter that went stale twice was queued twice,
// unregisterWaiter() purged only the first copy, and serviceFired()
// burned a rate-limited slot on the dead key — staleCount over-reported.
TEST(OdpPageTable, SlowQueueDeadKeyAccountingFlagFlip)
{
    EventQueue events;
    Rng rng{7};
    FloodQuirkConfig cfg;
    cfg.updateFanout = 0; // every resolution is over-fanout
    cfg.staleThreshold = Time::us(10);
    PageStatusBoard board(events, rng, cfg);
    TranslationTable table{/*odp=*/true};

    board.registerWaiter(&table, 3, 11);
    // Two resolutions after the waiter went stale: the second must not
    // queue it again.
    events.schedule(Time::us(100), [&] { board.onPageMapped(table, 3); });
    events.schedule(Time::us(200), [&] { board.onPageMapped(table, 3); });
    // The QP is flushed before the slow service fires.
    events.schedule(Time::us(300),
                    [&] { board.unregisterWaiter(&table, 3, 11); });
    events.schedule(Time::us(400), [&] {
        EXPECT_EQ(board.staleCount(), 0u);
        EXPECT_EQ(board.waiterCount(), 0u);
    });
    events.run();

    EXPECT_EQ(board.stats().updateFailures, 1u);
    EXPECT_EQ(board.stats().slowRefreshes, 0u);
    EXPECT_EQ(board.staleCount(), 0u);
}
