/**
 * @file
 * Unit and parameterized tests of the RNIC building blocks: Local ACK
 * Timeout arithmetic (paper Sec. II-C), 24-bit PSN ring math, the
 * device profile catalog (Table I), the per-QP queue ring and the flat
 * key map.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rnic/device_profile.hh"
#include "rnic/flat_table.hh"
#include "rnic/qp_context.hh"
#include "rnic/ring.hh"
#include "rnic/timeout.hh"

using namespace ibsim;
using namespace ibsim::rnic;

TEST(TimeoutMath, SpecFormula)
{
    // T_tr = 4.096 us * 2^C_ack.
    EXPECT_EQ(timeoutInterval(1).toNs(), 8192);
    EXPECT_DOUBLE_EQ(timeoutInterval(12).toMs(), 16.777216);
    EXPECT_DOUBLE_EQ(timeoutInterval(16).toMs(), 268.435456);
    EXPECT_NEAR(timeoutInterval(18).toSec(), 1.0737, 1e-3);
    // 0 disables the timer.
    EXPECT_EQ(timeoutInterval(0), Time::max());
}

/** Parameterized sweep: the formula holds for every encodable exponent. */
class TimeoutIntervalSweep : public ::testing::TestWithParam<int>
{};

TEST_P(TimeoutIntervalSweep, PowerOfTwoLaw)
{
    const int cack = GetParam();
    const Time t = timeoutInterval(static_cast<std::uint8_t>(cack));
    EXPECT_EQ(t.toNs(), 4096ll << cack);
    if (cack > 1) {
        const Time prev =
            timeoutInterval(static_cast<std::uint8_t>(cack - 1));
        EXPECT_EQ(t.toNs(), 2 * prev.toNs());
    }
}

INSTANTIATE_TEST_SUITE_P(AllExponents, TimeoutIntervalSweep,
                         ::testing::Range(1, 32));

TEST(TimeoutMath, VendorClamping)
{
    EXPECT_EQ(effectiveCack(1, 16), 16);
    EXPECT_EQ(effectiveCack(16, 16), 16);
    EXPECT_EQ(effectiveCack(20, 16), 20);
    EXPECT_EQ(effectiveCack(0, 16), 0);  // disabled stays disabled
}

TEST(TimeoutMath, DetectionTimeWithinSpecBand)
{
    // The spec requires T_tr <= T_o <= 4 T_tr.
    for (const auto& profile : DeviceProfile::table1()) {
        for (std::uint8_t cack = 1; cack <= 21; ++cack) {
            const Time to = detectionTime(cack, profile);
            const Time ttr =
                timeoutInterval(effectiveCack(cack, profile.minCack));
            EXPECT_GE(to, ttr);
            EXPECT_LE(to, ttr * 4.0);
        }
    }
}

TEST(TimeoutMath, MeasuredFloorsFromThePaper)
{
    // Fig. 2: ~500 ms floor for ConnectX-3/4/6, ~30 ms for ConnectX-5.
    EXPECT_NEAR(detectionTime(1, DeviceProfile::connectX4()).toMs(),
                537.0, 10.0);
    EXPECT_NEAR(detectionTime(1, DeviceProfile::connectX3()).toMs(),
                537.0, 10.0);
    EXPECT_NEAR(detectionTime(1, DeviceProfile::connectX6()).toMs(),
                537.0, 10.0);
    EXPECT_NEAR(detectionTime(1, DeviceProfile::connectX5()).toMs(),
                33.6, 2.0);
}

TEST(PsnMath, NextWrapsAt24Bits)
{
    EXPECT_EQ(psnNext(0), 1u);
    EXPECT_EQ(psnNext(0xfffffe), 0xffffffu);
    EXPECT_EQ(psnNext(0xffffff), 0u);
}

TEST(PsnMath, DiffHandlesWraparound)
{
    EXPECT_EQ(psnDiff(5, 3), 2);
    EXPECT_EQ(psnDiff(3, 5), -2);
    EXPECT_EQ(psnDiff(0, 0xffffff), 1);   // just wrapped
    EXPECT_EQ(psnDiff(0xffffff, 0), -1);
    EXPECT_EQ(psnDiff(100, 100), 0);
}

/** Property sweep: diff/next are consistent across the ring. */
class PsnRingSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(PsnRingSweep, DiffOfNeighborsIsOne)
{
    const std::uint32_t psn = GetParam();
    EXPECT_EQ(psnDiff(psnNext(psn), psn), 1);
    EXPECT_EQ(psnDiff(psn, psnNext(psn)), -1);
    // Mid-range distances keep their sign.
    const std::uint32_t far = (psn + 0x400000) & 0xffffff;
    EXPECT_GT(psnDiff(far, psn), 0);
}

INSTANTIATE_TEST_SUITE_P(RingPoints, PsnRingSweep,
                         ::testing::Values(0u, 1u, 100u, 0x7fffffu,
                                           0x800000u, 0xfffffeu,
                                           0xffffffu));

TEST(DeviceCatalog, TableOneMatchesThePaper)
{
    const auto catalog = DeviceProfile::table1();
    ASSERT_EQ(catalog.size(), 8u);

    EXPECT_EQ(catalog[0].systemName, "Private servers A");
    EXPECT_EQ(catalog[0].model, Model::ConnectX3);
    EXPECT_EQ(catalog[0].psid, "MT_1100120019");

    EXPECT_EQ(catalog[1].systemName, "Private servers B");
    EXPECT_EQ(catalog[1].model, Model::ConnectX4);
    EXPECT_EQ(catalog[1].firmwareVersion, "12.27.1016");

    EXPECT_EQ(catalog[6].model, Model::ConnectX5);
    EXPECT_EQ(catalog[6].minCack, 12);
    EXPECT_EQ(catalog[7].model, Model::ConnectX6);
    EXPECT_EQ(catalog[7].linkGbps, 200);

    // The damming quirk vanished after ConnectX-4 (vendor feedback).
    EXPECT_TRUE(catalog[1].dammingQuirk);
    EXPECT_FALSE(catalog[6].dammingQuirk);
    EXPECT_FALSE(catalog[7].dammingQuirk);

    // Every profile keeps the flood quirk: it remains in the latest cards.
    for (const auto& p : catalog)
        EXPECT_TRUE(p.floodQuirk.enabled);
}

TEST(DeviceCatalog, KnlIsPrivateServersB)
{
    const auto knl = DeviceProfile::knl();
    EXPECT_EQ(knl.systemName, "Private servers B");
    EXPECT_EQ(knl.model, Model::ConnectX4);
}

TEST(DeviceCatalog, ModelNames)
{
    EXPECT_STREQ(modelName(Model::ConnectX3), "ConnectX-3");
    EXPECT_STREQ(modelName(Model::ConnectX6), "ConnectX-6");
}

namespace {

template <typename T>
std::vector<T>
contents(const Ring<T>& ring)
{
    std::vector<T> out;
    for (const T& v : ring)
        out.push_back(v);
    return out;
}

} // namespace

TEST(QueueRing, AllocatesNothingBeforeFirstPush)
{
    Ring<SendWqe> ring;
    EXPECT_EQ(ring.capacity(), 0u);
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ring.begin() == ring.end());
    ring.clear();  // clearing an empty ring allocates nothing either
    EXPECT_EQ(ring.capacity(), 0u);

    ring.push_back(SendWqe{});
    EXPECT_EQ(ring.capacity(), Ring<SendWqe>::initialCapacity);
    EXPECT_EQ(ring.size(), 1u);
}

TEST(QueueRing, WrapsAroundWithoutGrowing)
{
    Ring<int> ring;
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    ring.pop_front();
    ring.pop_front();
    ring.push_back(4);
    ring.push_back(5);  // these two land in the freed front slots
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.front(), 2);
    EXPECT_EQ(ring.back(), 5);
    EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5}));
}

TEST(QueueRing, GrowthWhileWrappedKeepsOrder)
{
    Ring<std::string> ring;
    for (int i = 0; i < 4; ++i)
        ring.push_back(std::to_string(i));
    ring.pop_front();
    ring.push_back("4");  // wrapped: head is slot 1, tail slot 0
    ring.push_back("5");  // full: doubles and unwraps
    EXPECT_EQ(ring.capacity(), 8u);
    for (int i = 6; i < 12; ++i)
        ring.push_back(std::to_string(i));
    EXPECT_EQ(ring.capacity(), 16u);
    std::vector<std::string> want;
    for (int i = 1; i < 12; ++i)
        want.push_back(std::to_string(i));
    EXPECT_EQ(contents(ring), want);
    EXPECT_EQ(ring.front(), "1");
    EXPECT_EQ(ring.back(), "11");
}

TEST(QueueRing, IterationAfterWrapVisitsFifoOrder)
{
    Ring<std::uint32_t> ring;
    // Cycle the head around the 4-slot array several times.
    std::uint32_t next = 0;
    for (int round = 0; round < 10; ++round) {
        while (ring.size() < 3)
            ring.push_back(next++);
        ring.pop_front();
        ring.pop_front();
    }
    EXPECT_EQ(ring.capacity(), 4u);
    ring.push_back(next++);
    ring.push_back(next++);
    ring.push_back(next++);
    std::vector<std::uint32_t> want;
    for (std::uint32_t v = next - 4; v < next; ++v)
        want.push_back(v);
    EXPECT_EQ(contents(ring), want);

    // Mutation through the iterator lands on the element seen by front().
    for (auto& v : ring)
        v += 100;
    EXPECT_EQ(ring.front(), want.front() + 100);
}

TEST(QueueRing, ClearEmptiesAndKeepsSlots)
{
    Ring<int> ring;
    for (int i = 0; i < 6; ++i)
        ring.push_back(i);
    ring.pop_front();
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.begin() == ring.end());
    EXPECT_EQ(ring.capacity(), 8u);
    ring.push_back(7);
    ring.push_back(8);
    EXPECT_EQ(contents(ring), (std::vector<int>{7, 8}));
}

TEST(FlatKeyMapUnits, AllocatesNothingBeforeFirstInsert)
{
    FlatKeyMap<int> map;
    EXPECT_EQ(map.capacity(), 0u);
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_FALSE(map.erase(7));
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);  // misses and erases allocate nothing

    // Sentinel keys live out of line: they do not allocate either.
    map.insert(0, 1);
    EXPECT_EQ(map.capacity(), 0u);

    map.insert(7, 2);
    EXPECT_EQ(map.capacity(), FlatKeyMap<int>::initialCapacity);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatKeyMapUnits, SentinelKeysAreOrdinaryKeys)
{
    constexpr std::uint64_t maxKey = std::numeric_limits<std::uint64_t>::max();
    FlatKeyMap<int, std::uint64_t> map;
    map.insert(0, 10);
    map.insert(maxKey, 20);
    map.insert(1, 30);
    EXPECT_EQ(map.size(), 3u);
    ASSERT_NE(map.find(0), nullptr);
    ASSERT_NE(map.find(maxKey), nullptr);
    EXPECT_EQ(*map.find(0), 10);
    EXPECT_EQ(*map.find(maxKey), 20);
    EXPECT_EQ(*map.find(1), 30);

    ++map[0];
    ++map[maxKey];
    EXPECT_EQ(*map.find(0), 11);
    EXPECT_EQ(*map.find(maxKey), 21);

    EXPECT_TRUE(map.erase(0));
    EXPECT_FALSE(map.erase(0));
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_NE(map.find(maxKey), nullptr);
    EXPECT_EQ(map.size(), 2u);

    // The 32-bit table's sentinels work the same way.
    FlatKeyMap<int> narrow;
    narrow[0] = 1;
    narrow[0xffffffffu] = 2;
    EXPECT_EQ(narrow.size(), 2u);
    EXPECT_EQ(*narrow.find(0), 1);
    EXPECT_EQ(*narrow.find(0xffffffffu), 2);
}

TEST(FlatKeyMapUnits, SixtyFourBitKeysKeepTheirHighWord)
{
    // (lid << 32) | qpn keys: many lids share each qpn, so the high word
    // must take part in both the hash and the comparison.
    FlatKeyMap<std::uint32_t, std::uint64_t> map;
    std::uint32_t value = 0;
    for (std::uint64_t lid = 1; lid <= 16; ++lid)
        for (std::uint64_t qpn = 100; qpn < 132; ++qpn)
            map.insert((lid << 32) | qpn, value++);
    EXPECT_EQ(map.size(), 512u);
    value = 0;
    for (std::uint64_t lid = 1; lid <= 16; ++lid) {
        for (std::uint64_t qpn = 100; qpn < 132; ++qpn) {
            const std::uint32_t* found = map.find((lid << 32) | qpn);
            ASSERT_NE(found, nullptr) << lid << " " << qpn;
            EXPECT_EQ(*found, value++);
        }
    }
    EXPECT_EQ(map.find((std::uint64_t(17) << 32) | 100), nullptr);
    EXPECT_EQ(map.find(100), nullptr);  // same low word, no high word
}

TEST(FlatKeyMapUnits, GrowthAndReserve)
{
    FlatKeyMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t key = 1; key <= 1000; ++key)
        ++map[key * 0x100000001ull];
    EXPECT_EQ(map.size(), 1000u);
    EXPECT_LE(map.size() * 10, map.capacity() * 7);  // load <= 0.7
    for (std::uint64_t key = 1; key <= 1000; ++key)
        ASSERT_EQ(*map.find(key * 0x100000001ull), 1u) << key;

    FlatKeyMap<int, std::uint64_t> reserved;
    reserved.reserve(100);
    const std::size_t capacity = reserved.capacity();
    EXPECT_GE(capacity, 200u);
    for (std::uint64_t key = 1; key <= 100; ++key)
        reserved.insert(key << 40, 0);
    EXPECT_EQ(reserved.capacity(), capacity);  // no rehash on the way
    reserved.reserve(10);  // never shrinks
    EXPECT_EQ(reserved.capacity(), capacity);
}
