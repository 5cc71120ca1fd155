/**
 * @file
 * Unit tests of the host memory substrate and the ODP engine: address
 * spaces, translation tables, the driver's fault lifecycle, and the
 * page-status board's update-failure machinery.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "mem/address_space.hh"
#include "odp/odp_driver.hh"
#include "odp/page_status_board.hh"
#include "odp/translation_table.hh"

using namespace ibsim;
using namespace ibsim::mem;
using namespace ibsim::odp;

TEST(AddressSpaceTest, AllocIsPageAlignedAndDisjoint)
{
    AddressSpace as;
    const auto a = as.alloc(100);
    const auto b = as.alloc(5000);
    const auto c = as.alloc(1);
    EXPECT_EQ(a % pageSize, 0u);
    EXPECT_EQ(b % pageSize, 0u);
    EXPECT_EQ(b - a, pageSize);          // 100 B rounds to one page
    EXPECT_EQ(c - b, 2 * pageSize);      // 5000 B rounds to two pages
    EXPECT_EQ(as.reservedBytes(), 4 * pageSize);
}

TEST(AddressSpaceTest, PresenceFollowsTouchAndRelease)
{
    AddressSpace as;
    const auto base = as.alloc(3 * pageSize);
    EXPECT_FALSE(as.present(base));
    as.touch(base + pageSize, 2 * pageSize);
    EXPECT_FALSE(as.present(base));
    EXPECT_TRUE(as.present(base + pageSize));
    EXPECT_TRUE(as.present(base + 2 * pageSize));
    EXPECT_EQ(as.presentPages(), 2u);

    as.releasePage(base + pageSize);
    EXPECT_FALSE(as.present(base + pageSize));
    EXPECT_EQ(as.presentPages(), 1u);
}

TEST(AddressSpaceTest, WriteReadRoundTripAcrossPages)
{
    AddressSpace as;
    const auto base = as.alloc(2 * pageSize);
    std::vector<std::uint8_t> data(pageSize, 0);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);

    // Straddle the page boundary.
    const auto addr = base + pageSize / 2;
    as.write(addr, data);
    EXPECT_EQ(as.read(addr, data.size()), data);
    EXPECT_TRUE(as.present(base));
    EXPECT_TRUE(as.present(base + pageSize));
}

TEST(AddressSpaceTest, ReadOfAbsentPagesIsZeroAndNonFaulting)
{
    AddressSpace as;
    const auto base = as.alloc(pageSize);
    const auto out = as.read(base, 16);
    EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
    EXPECT_FALSE(as.present(base));  // a peek, not a touch
}

TEST(AddressSpaceTest, TouchEndpointInclusive)
{
    AddressSpace as;
    const auto base = as.alloc(2 * pageSize);
    // A range ending exactly on the boundary must not touch the next page.
    as.touch(base, pageSize);
    EXPECT_TRUE(as.present(base));
    EXPECT_FALSE(as.present(base + pageSize));
}

TEST(AddressSpaceTest, AllocRejectsZeroAndOverflowingSizes)
{
    AddressSpace as;
    const auto a = as.alloc(1);
    EXPECT_THROW(as.alloc(0), std::invalid_argument);
    // size + pageSize - 1 wraps: would reserve zero pages.
    EXPECT_THROW(as.alloc(std::numeric_limits<std::uint64_t>::max()),
                 std::invalid_argument);
    EXPECT_THROW(as.alloc(std::numeric_limits<std::uint64_t>::max() -
                          pageSize + 2),
                 std::invalid_argument);
    // Rounds up without wrapping, but the range would end past 2^64.
    EXPECT_THROW(as.alloc(std::numeric_limits<std::uint64_t>::max() - a -
                          2 * pageSize + 2),
                 std::invalid_argument);
    // Rejected calls reserve nothing: the next region follows `a`.
    const auto b = as.alloc(1);
    EXPECT_EQ(b - a, pageSize);
    EXPECT_EQ(as.reservedBytes(), 2 * pageSize);
}

TEST(AddressSpaceTest, WritePastHighWaterKeepsEarlierBytes)
{
    AddressSpace as;
    const auto base = as.alloc(pageSize);
    const std::vector<std::uint8_t> head(100, 0xab);
    const std::vector<std::uint8_t> tail(50, 0xcd);
    as.write(base + 10, head);
    as.write(base + 3000, tail);  // grows the buffer to the full page
    EXPECT_EQ(as.read(base + 10, head.size()), head);
    EXPECT_EQ(as.read(base + 3000, tail.size()), tail);
    EXPECT_EQ(as.read(base + 110, 2890),
              std::vector<std::uint8_t>(2890, 0));
    EXPECT_EQ(as.read(base + 3050, pageSize - 3050),
              std::vector<std::uint8_t>(pageSize - 3050, 0));
}

TEST(AddressSpaceTest, ReadSpanningWrittenAndUnwrittenIsZeroFilled)
{
    AddressSpace as;
    const auto base = as.alloc(4 * pageSize);
    // Page 0: bytes near its end; page 1: touched only; page 2: a few
    // bytes at its start; page 3: never present.
    as.write(base + pageSize - 20, std::vector<std::uint8_t>(10, 1));
    as.touch(base + pageSize, 1);
    as.write(base + 2 * pageSize + 5, std::vector<std::uint8_t>(5, 2));

    const auto out = as.read(base, 4 * pageSize);
    ASSERT_EQ(out.size(), 4 * pageSize);
    for (std::uint64_t i = 0; i < out.size(); ++i) {
        std::uint8_t want = 0;
        if (i >= pageSize - 20 && i < pageSize - 10)
            want = 1;
        else if (i >= 2 * pageSize + 5 && i < 2 * pageSize + 10)
            want = 2;
        ASSERT_EQ(out[i], want) << "offset " << i;
    }
    EXPECT_EQ(as.presentPages(), 3u);
    EXPECT_FALSE(as.present(base + 3 * pageSize));
}

TEST(AddressSpaceTest, ReleaseThenRepopulateReadsZero)
{
    AddressSpace as;
    const auto base = as.alloc(pageSize);
    as.write(base, std::vector<std::uint8_t>(pageSize, 0x5a));
    as.releasePage(base);
    EXPECT_EQ(as.read(base, pageSize), std::vector<std::uint8_t>(pageSize, 0));
    EXPECT_TRUE(as.populatePage(base));
    EXPECT_EQ(as.read(base, pageSize), std::vector<std::uint8_t>(pageSize, 0));
    as.write(base + 8, std::vector<std::uint8_t>(4, 7));
    as.releasePage(base);
    as.write(base + 300, std::vector<std::uint8_t>(4, 9));
    EXPECT_EQ(as.read(base + 8, 4), std::vector<std::uint8_t>(4, 0));
    EXPECT_EQ(as.read(base + 300, 4), std::vector<std::uint8_t>(4, 9));
}

TEST(AddressSpaceTest, AddressesOutsideAllocRangesRoundTrip)
{
    // Implicit ODP reaches addresses no alloc() handed out, up to the top
    // of the 64-bit space and below the allocation base.
    AddressSpace as;
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
    for (const std::uint64_t va :
         {top - 7, top - pageSize - 3, std::uint64_t{0x1000},
          std::uint64_t{0xdead0000beef}}) {
        as.write(va, data);
        EXPECT_EQ(as.read(va, data.size()), data) << std::hex << va;
        EXPECT_TRUE(as.present(va));
    }
    // top - pageSize - 3 straddles into the page holding top - 7.
    EXPECT_EQ(as.presentPages(), 4u);
    EXPECT_EQ(as.reservedBytes(), 0u);
}

TEST(AddressSpaceTest, PresentPagesCountIsExact)
{
    AddressSpace as;
    const auto base = as.alloc(8 * pageSize);
    as.touch(base, 3 * pageSize);
    as.touch(base + pageSize, 3 * pageSize);  // overlaps two
    EXPECT_EQ(as.presentPages(), 4u);
    EXPECT_FALSE(as.populatePage(base + 2 * pageSize));
    EXPECT_TRUE(as.populatePage(base + 6 * pageSize));
    as.write(base, std::vector<std::uint8_t>(10, 1));  // already present
    EXPECT_EQ(as.presentPages(), 5u);
    as.releasePage(base + 7 * pageSize);  // never present: no-op
    as.releasePage(base + pageSize);
    as.releasePage(base + pageSize);      // twice: counted once
    EXPECT_EQ(as.presentPages(), 4u);
    as.releasePage(base + 512 * pageSize);  // chunk never created
    EXPECT_EQ(as.presentPages(), 4u);
}

TEST(AddressSpaceTest, StoredBytesCoverOnlyWrittenPrefix)
{
    AddressSpace as;
    const auto base = as.alloc(3 * pageSize);
    as.touch(base, 3 * pageSize);
    EXPECT_EQ(as.storedBytes(), 0u);  // presence alone stores nothing

    // A flood_wide client page: four 100-B READ landings at 128-B slots.
    for (std::uint64_t slot = 0; slot < 4; ++slot)
        as.write(base + slot * 128, std::vector<std::uint8_t>(100, 3));
    EXPECT_EQ(as.storedBytes(), 512u);

    as.write(base + pageSize, std::vector<std::uint8_t>(pageSize, 4));
    EXPECT_EQ(as.storedBytes(), 512u + pageSize);

    as.releasePage(base);
    as.releasePage(base + pageSize);
    EXPECT_EQ(as.storedBytes(), 0u);
    as.releasePage(base + 2 * pageSize);
    EXPECT_EQ(as.storedBytes(), 0u);
}

TEST(TranslationTableTest, PinnedTableIsAlwaysMapped)
{
    TranslationTable t(/*odp=*/false);
    EXPECT_TRUE(t.mappedPage(0x12345));
    EXPECT_TRUE(t.mappedRange(0x10000, 1 << 20));
    EXPECT_EQ(t.firstUnmapped(0x10000, 1 << 20), 0u);
}

TEST(TranslationTableTest, OdpTableTracksPages)
{
    TranslationTable t(/*odp=*/true);
    const std::uint64_t base = 0x10000;
    EXPECT_FALSE(t.mappedPage(base));
    EXPECT_EQ(t.firstUnmapped(base, 100), base);

    t.mapPage(base);
    EXPECT_TRUE(t.mappedPage(base + 100));  // same page
    EXPECT_TRUE(t.mappedRange(base, 100));
    // Next page still unmapped.
    EXPECT_EQ(t.firstUnmapped(base, 2 * pageSize), base + pageSize);

    t.mapPage(base + pageSize);
    t.mapPage(base + 2 * pageSize);
    EXPECT_EQ(t.mappedPages(), 3u);
    // invalidate_start flushes the translation.
    OdpPageTable pages;
    EXPECT_NE(pages.move(t, pageOf(base + pageSize), PageState::Invalidating),
              nullptr);
    EXPECT_FALSE(t.mappedPage(base + pageSize));  // already gone
    EXPECT_EQ(t.firstUnmapped(base, 3 * pageSize), base + pageSize);
}

namespace {

struct DriverFixture : public ::testing::Test
{
    EventQueue events;
    Rng rng{1};
    AddressSpace memory;
    FaultTiming timing;
    TranslationTable table{/*odp=*/true};

    DriverFixture()
    {
        timing.faultLatencyMin = Time::us(500);
        timing.faultLatencyMax = Time::us(501);
    }
};

} // namespace

TEST_F(DriverFixture, FaultResolvesAfterLatency)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 0x20000;
    bool resolved = false;
    driver.raiseFault(table, va, [&] { resolved = true; });
    EXPECT_TRUE(driver.faultInFlight(table, va));
    events.run();
    EXPECT_TRUE(resolved);
    EXPECT_TRUE(table.mappedPage(va));
    EXPECT_TRUE(memory.present(va));
    EXPECT_FALSE(driver.faultInFlight(table, va));
    EXPECT_NEAR(events.now().toUs(), 500.0, 2.0);
    EXPECT_EQ(driver.stats().faultsRaised, 1u);
    EXPECT_EQ(driver.stats().faultsResolved, 1u);
}

TEST_F(DriverFixture, ConcurrentFaultsOnOnePageCoalesce)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 0x20000;
    int callbacks = 0;
    driver.raiseFault(table, va, [&] { ++callbacks; });
    driver.raiseFault(table, va + 8, [&] { ++callbacks; });  // same page
    events.run();
    EXPECT_EQ(callbacks, 2);
    EXPECT_EQ(driver.stats().faultsRaised, 1u);
    EXPECT_EQ(driver.stats().faultsCoalesced, 1u);
}

TEST_F(DriverFixture, ResolutionObserverFires)
{
    OdpDriver driver(events, rng, memory, timing);
    std::uint64_t observed_page = 0;
    driver.setResolutionObserver(
        [&](TranslationTable&, std::uint64_t page) {
            observed_page = page;
        });
    driver.raiseFault(table, 5 * pageSize);
    events.run();
    EXPECT_EQ(observed_page, 5u);
}

TEST_F(DriverFixture, CongestionProbeStretchesLatency)
{
    OdpDriver driver(events, rng, memory, timing);
    driver.setCongestionProbe([] { return 4.0; });
    driver.raiseFault(table, 0x20000);
    events.run();
    EXPECT_NEAR(events.now().toUs(), 2000.0, 8.0);
}

TEST_F(DriverFixture, InvalidateReclaimsHostPageAndFlushesTable)
{
    OdpDriver driver(events, rng, memory, timing);
    const std::uint64_t va = 0x20000;
    driver.raiseFault(table, va);
    events.run();
    ASSERT_TRUE(table.mappedPage(va));

    driver.invalidate(table, va);
    events.run();
    EXPECT_FALSE(table.mappedPage(va));
    EXPECT_FALSE(memory.present(va));
    EXPECT_EQ(driver.stats().invalidations, 1u);
}

TEST_F(DriverFixture, PrefetchMapsWithoutFaults)
{
    OdpDriver driver(events, rng, memory, timing);
    driver.prefetch(table, 0x20000, 3 * pageSize);
    events.run();
    EXPECT_EQ(table.mappedPages(), 3u);
    EXPECT_EQ(driver.stats().faultsRaised, 0u);
    EXPECT_EQ(driver.stats().prefetchedPages, 3u);
    // 3 pages at prefetchLatencyPerPage each.
    EXPECT_NEAR(events.now().toUs(),
                3 * prefetchLatencyPerPage.toUs(), 1.0);
}

namespace {

struct BoardFixture : public ::testing::Test
{
    EventQueue events;
    Rng rng{1};
    FloodQuirkConfig config;
    TranslationTable table{/*odp=*/true};

    BoardFixture()
    {
        config.updateFanout = 4;
        config.staleThreshold = Time::us(500);
        config.slowUpdateBase = Time::ms(1);
        config.slowServiceBase = Time::us(100);
    }
};

} // namespace

TEST_F(BoardFixture, SmallCohortGetsPromptUpdates)
{
    PageStatusBoard board(events, rng, config);
    for (std::uint32_t qpn = 0; qpn < 4; ++qpn)
        board.registerWaiter(&table, 7, qpn);
    events.advance(Time::ms(2));  // everyone is "old" now
    board.onPageMapped(table, 7);
    EXPECT_EQ(board.stats().promptUpdates, 4u);
    EXPECT_EQ(board.stats().updateFailures, 0u);
    for (std::uint32_t qpn = 0; qpn < 4; ++qpn)
        EXPECT_TRUE(board.fresh(&table, 7, qpn));
}

TEST_F(BoardFixture, StaleWaitersOverFanoutFail)
{
    PageStatusBoard board(events, rng, config);
    // Six old waiters (stale) plus two fresh ones.
    for (std::uint32_t qpn = 0; qpn < 6; ++qpn)
        board.registerWaiter(&table, 7, qpn);
    events.advance(Time::ms(1));
    for (std::uint32_t qpn = 6; qpn < 8; ++qpn)
        board.registerWaiter(&table, 7, qpn);

    board.onPageMapped(table, 7);
    EXPECT_EQ(board.stats().updateFailures, 6u);
    EXPECT_EQ(board.stats().promptUpdates, 2u);
    EXPECT_EQ(board.staleCount(), 6u);
    EXPECT_FALSE(board.fresh(&table, 7, 0));
    EXPECT_TRUE(board.fresh(&table, 7, 6));

    // The slow path eventually refreshes everyone.
    events.run();
    EXPECT_EQ(board.staleCount(), 0u);
    EXPECT_EQ(board.stats().slowRefreshes, 6u);
    EXPECT_TRUE(board.fresh(&table, 7, 0));
}

TEST_F(BoardFixture, QuirkDisabledNeverFails)
{
    config.enabled = false;
    PageStatusBoard board(events, rng, config);
    for (std::uint32_t qpn = 0; qpn < 20; ++qpn)
        board.registerWaiter(&table, 7, qpn);
    events.advance(Time::ms(2));
    board.onPageMapped(table, 7);
    EXPECT_EQ(board.stats().updateFailures, 0u);
    EXPECT_EQ(board.stats().promptUpdates, 20u);
}

TEST_F(BoardFixture, RegistrationIsIdempotent)
{
    PageStatusBoard board(events, rng, config);
    board.registerWaiter(&table, 3, 42);
    events.advance(Time::ms(1));
    board.registerWaiter(&table, 3, 42);  // keeps the original timestamp
    EXPECT_EQ(board.waiterCount(), 1u);
    EXPECT_EQ(board.stats().waitersRegistered, 1u);
}

TEST_F(BoardFixture, UnregisterRemovesStaleWaiter)
{
    PageStatusBoard board(events, rng, config);
    for (std::uint32_t qpn = 0; qpn < 6; ++qpn)
        board.registerWaiter(&table, 7, qpn);
    events.advance(Time::ms(1));
    board.onPageMapped(table, 7);
    ASSERT_EQ(board.staleCount(), 6u);

    board.unregisterWaiter(&table, 7, 3);
    EXPECT_EQ(board.staleCount(), 5u);
    EXPECT_TRUE(board.fresh(&table, 7, 3));
    events.run();
    EXPECT_EQ(board.staleCount(), 0u);
}

TEST_F(BoardFixture, LifoServiceRefreshesNewestFailureFirst)
{
    PageStatusBoard board(events, rng, config);
    // Two separate pages, each with an over-fanout stale cohort; page 9's
    // cohort fails later than page 7's.
    for (std::uint32_t qpn = 0; qpn < 5; ++qpn)
        board.registerWaiter(&table, 7, qpn);
    for (std::uint32_t qpn = 10; qpn < 15; ++qpn)
        board.registerWaiter(&table, 9, qpn);
    events.advance(Time::ms(1));
    board.onPageMapped(table, 7);
    board.onPageMapped(table, 9);

    // Serve exactly one refresh: it must come from page 9's cohort (the
    // most recent failures sit at the back of the LIFO queue).
    events.runUntil(
        [&] { return board.stats().slowRefreshes == 1; });
    bool page9_served = false;
    for (std::uint32_t qpn = 10; qpn < 15; ++qpn)
        page9_served |= board.fresh(&table, 9, qpn);
    EXPECT_TRUE(page9_served);
}
