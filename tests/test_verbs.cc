/**
 * @file
 * Tests of the verbs-layer objects: completion queues, memory regions,
 * QP error semantics, and the config helpers.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "pitfall/workarounds.hh"
#include "verbs/completion_queue.hh"
#include "verbs/memory_region.hh"
#include "verbs/types.hh"

using namespace ibsim;
using namespace ibsim::verbs;

TEST(CompletionQueueTest, PollDrainsFifo)
{
    CompletionQueue cq;
    for (std::uint64_t i = 0; i < 5; ++i) {
        WorkCompletion wc;
        wc.wrId = i;
        cq.push(wc);
    }
    EXPECT_EQ(cq.pending(), 5u);
    auto two = cq.poll(2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].wrId, 0u);
    EXPECT_EQ(two[1].wrId, 1u);
    auto rest = cq.poll();
    EXPECT_EQ(rest.size(), 3u);
    EXPECT_EQ(cq.pending(), 0u);
    EXPECT_EQ(cq.totalCompletions(), 5u);
}

TEST(CompletionQueueTest, ErrorTracking)
{
    CompletionQueue cq;
    WorkCompletion good;
    cq.push(good);
    EXPECT_FALSE(cq.hasError());

    WorkCompletion bad;
    bad.wrId = 42;
    bad.status = WcStatus::RetryExcErr;
    cq.push(bad);
    WorkCompletion flushed;
    flushed.status = WcStatus::WrFlushErr;
    cq.push(flushed);

    EXPECT_TRUE(cq.hasError());
    EXPECT_EQ(cq.firstError().wrId, 42u);
    EXPECT_EQ(cq.firstError().status, WcStatus::RetryExcErr);
    EXPECT_EQ(cq.totalSuccess(), 1u);
    EXPECT_EQ(cq.totalErrors(), 2u);
}

TEST(CompletionQueueTest, WcStringAndNames)
{
    WorkCompletion wc;
    wc.wrId = 9;
    wc.opcode = WrOpcode::Write;
    wc.status = WcStatus::RemAccessErr;
    const std::string s = wc.str();
    EXPECT_NE(s.find("WRITE"), std::string::npos);
    EXPECT_NE(s.find("REM_ACCESS_ERR"), std::string::npos);
    EXPECT_STREQ(wcStatusName(WcStatus::Success), "SUCCESS");
    EXPECT_STREQ(wrOpcodeName(WrOpcode::Recv), "RECV");
}

TEST(MemoryRegionTest, PinnedRegistrationMapsEverythingUpFront)
{
    mem::AddressSpace as;
    const auto base = as.alloc(3 * mem::pageSize);
    MemoryRegion mr(1, base, 3 * mem::pageSize, AccessFlags::pinned(), as);
    EXPECT_FALSE(mr.odp());
    EXPECT_EQ(mr.table().mappedPages(), 3u);
    EXPECT_TRUE(as.present(base + 2 * mem::pageSize));  // pinned down
    EXPECT_EQ(mr.lkey(), mr.rkey());
}

TEST(MemoryRegionTest, OdpRegistrationStartsCold)
{
    mem::AddressSpace as;
    const auto base = as.alloc(3 * mem::pageSize);
    MemoryRegion mr(1, base, 3 * mem::pageSize, AccessFlags::odp(), as);
    EXPECT_TRUE(mr.odp());
    EXPECT_EQ(mr.table().mappedPages(), 0u);
    EXPECT_FALSE(as.present(base));
}

TEST(MemoryRegionTest, ContainsChecksBounds)
{
    mem::AddressSpace as;
    const auto base = as.alloc(4096);
    MemoryRegion mr(1, base, 4096, AccessFlags::pinned(), as);
    EXPECT_TRUE(mr.contains(base, 4096));
    EXPECT_TRUE(mr.contains(base + 4000, 96));
    EXPECT_FALSE(mr.contains(base + 4000, 97));
    EXPECT_FALSE(mr.contains(base - 1, 10));
    // addr + len wraps past 2^64 to below the region's end.
    EXPECT_FALSE(mr.contains(~std::uint64_t{0} - 7, 16));
}

TEST(QpErrorSemantics, PostAfterErrorFlushesImmediately)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 1);
    Node& node = cluster.node(0);
    auto& cq = node.createCq();
    verbs::QpConfig config;
    config.cack = 14;
    config.cretry = 0;  // first timeout aborts
    auto qp = node.createQp(cq, config);
    qp.connect(/*dst_lid=*/404, /*dst_qpn=*/1);

    const auto buf = node.alloc(4096);
    auto& mr = node.registerMemory(buf, 4096, AccessFlags::pinned());
    qp.postRead(buf, mr.lkey(), 0x50000000, 1, 64, 1);
    cluster.runUntil([&] { return cq.totalCompletions() == 1; },
                     Time::sec(30));
    ASSERT_EQ(qp.context().state, rnic::QpState::Error);

    // Further posts complete instantly with WR_FLUSH_ERR.
    qp.postRead(buf, mr.lkey(), 0x50000000, 1, 64, 2);
    auto wcs = cq.poll();
    ASSERT_EQ(wcs.size(), 2u);
    EXPECT_EQ(wcs[0].status, WcStatus::RetryExcErr);
    EXPECT_EQ(wcs[1].status, WcStatus::WrFlushErr);
    EXPECT_EQ(wcs[1].wrId, 2u);
}

TEST(QpErrorSemantics, MultipleOutstandingFlushTogether)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 1);
    Node& node = cluster.node(0);
    auto& cq = node.createCq();
    verbs::QpConfig config;
    config.cack = 14;
    config.cretry = 1;
    auto qp = node.createQp(cq, config);
    qp.connect(404, 1);

    const auto buf = node.alloc(8192);
    auto& mr = node.registerMemory(buf, 8192, AccessFlags::pinned());
    for (std::uint64_t i = 0; i < 3; ++i)
        qp.postRead(buf, mr.lkey(), 0x50000000, 1, 64, i);
    cluster.runUntil([&] { return cq.totalCompletions() == 3; },
                     Time::sec(30));
    auto wcs = cq.poll();
    ASSERT_EQ(wcs.size(), 3u);
    // The failing WR carries the real error; the rest flush.
    EXPECT_EQ(wcs[0].status, WcStatus::RetryExcErr);
    EXPECT_EQ(wcs[1].status, WcStatus::WrFlushErr);
    EXPECT_EQ(wcs[2].status, WcStatus::WrFlushErr);
}

TEST(ConfigHelpers, MinimalRnrDelay)
{
    verbs::QpConfig config;
    config.cack = 18;
    const auto tuned = pitfall::withMinimalRnrDelay(config);
    EXPECT_EQ(tuned.minRnrNakDelay, Time::ms(0.01));
    EXPECT_EQ(tuned.cack, 18);  // everything else untouched
}

TEST(AccessFlagsTest, Factories)
{
    const auto pinned = AccessFlags::pinned();
    EXPECT_FALSE(pinned.onDemand);
    EXPECT_TRUE(pinned.remoteRead);
    const auto odp = AccessFlags::odp();
    EXPECT_TRUE(odp.onDemand);
}
