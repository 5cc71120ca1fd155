/**
 * @file
 * Tests of the ATOMIC verbs: fetch-and-add, compare-and-swap, duplicate
 * replay protection under loss, and ODP interaction.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"

using namespace ibsim;

namespace {

std::uint64_t
read64(Node& node, std::uint64_t addr)
{
    const auto bytes = node.memory().read(addr, 8);
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data(), 8);
    return v;
}

void
write64(Node& node, std::uint64_t addr, std::uint64_t v)
{
    std::vector<std::uint8_t> bytes(8);
    std::memcpy(bytes.data(), &v, 8);
    node.memory().write(addr, bytes);
}

struct AtomicFixture : public ::testing::Test
{
    Cluster cluster{rnic::DeviceProfile::connectX4(), 2, 17};
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    verbs::CompletionQueue& ccq = client.createCq();
    verbs::CompletionQueue& scq = server.createCq();
    verbs::QueuePair cqp;
    std::uint64_t counter = 0;  // remote counter address
    std::uint64_t land = 0;     // local landing buffer
    verbs::MemoryRegion* smr = nullptr;
    verbs::MemoryRegion* cmr = nullptr;

    void
    SetUp() override
    {
        auto [a, b] = cluster.connectRc(client, ccq, server, scq);
        cqp = a;
        counter = server.alloc(4096);
        land = client.alloc(4096);
        smr = &server.registerMemory(counter, 4096,
                                     verbs::AccessFlags::pinned());
        cmr = &client.registerMemory(land, 4096,
                                     verbs::AccessFlags::pinned());
    }

    bool
    waitFor(std::uint64_t completions, Time limit = Time::sec(5))
    {
        return cluster.runUntil(
            [&] { return ccq.totalCompletions() >= completions; }, limit);
    }
};

} // namespace

TEST_F(AtomicFixture, FetchAddReturnsOldAndAdds)
{
    write64(server, counter, 100);
    cqp.postFetchAdd(land, cmr->lkey(), counter, smr->rkey(), 5, 1);
    ASSERT_TRUE(waitFor(1));
    auto wcs = ccq.poll();
    EXPECT_TRUE(wcs[0].ok());
    EXPECT_EQ(wcs[0].opcode, verbs::WrOpcode::FetchAdd);
    EXPECT_EQ(read64(client, land), 100u);   // original value landed
    EXPECT_EQ(read64(server, counter), 105u);
}

TEST_F(AtomicFixture, FetchAddChainAccumulates)
{
    for (std::uint64_t i = 0; i < 10; ++i)
        cqp.postFetchAdd(land, cmr->lkey(), counter, smr->rkey(), 3,
                         i + 1);
    ASSERT_TRUE(waitFor(10));
    EXPECT_EQ(read64(server, counter), 30u);
    // The last response carries the value before the final add.
    EXPECT_EQ(read64(client, land), 27u);
}

TEST_F(AtomicFixture, CompSwapOnlySwapsOnMatch)
{
    write64(server, counter, 42);

    // Mismatch: no swap, old value returned.
    cqp.postCompSwap(land, cmr->lkey(), counter, smr->rkey(),
                     /*compare=*/7, /*swap=*/99, 1);
    ASSERT_TRUE(waitFor(1));
    EXPECT_EQ(read64(client, land), 42u);
    EXPECT_EQ(read64(server, counter), 42u);

    // Match: swapped.
    cqp.postCompSwap(land, cmr->lkey(), counter, smr->rkey(),
                     /*compare=*/42, /*swap=*/99, 2);
    ASSERT_TRUE(waitFor(2));
    EXPECT_EQ(read64(client, land), 42u);
    EXPECT_EQ(read64(server, counter), 99u);
}

TEST_F(AtomicFixture, SpinlockViaCompSwap)
{
    // Classic RDMA lock: CAS 0 -> 1 acquires; write 0 releases.
    cqp.postCompSwap(land, cmr->lkey(), counter, smr->rkey(), 0, 1, 1);
    ASSERT_TRUE(waitFor(1));
    EXPECT_EQ(read64(client, land), 0u);  // acquired

    // A second acquisition attempt fails (lock held).
    cqp.postCompSwap(land + 8, cmr->lkey(), counter, smr->rkey(), 0, 1,
                     2);
    ASSERT_TRUE(waitFor(2));
    EXPECT_EQ(read64(client, land + 8), 1u);  // busy
    EXPECT_EQ(read64(server, counter), 1u);
}

TEST_F(AtomicFixture, DuplicateAtomicsReplayNotReExecute)
{
    // Drop the first atomic *response*: the requester times out and
    // retransmits; the responder must answer from the replay cache, not
    // add twice.
    chaos::FaultInjector loss(1);
    loss.addStage(std::make_unique<chaos::MatchOnceDropStage>(
        [](const net::Packet& p) {
            return p.op == net::Opcode::AtomicResponse;
        }));
    cluster.fabric().setFaultHook(&loss);

    write64(server, counter, 10);
    cqp.postFetchAdd(land, cmr->lkey(), counter, smr->rkey(), 1, 1);
    ASSERT_TRUE(waitFor(1, Time::sec(30)));  // rides out one timeout
    EXPECT_EQ(read64(server, counter), 11u);  // exactly one add
    EXPECT_EQ(read64(client, land), 10u);
    EXPECT_GE(cqp.stats().timeouts, 1u);
}

TEST_F(AtomicFixture, AtomicAgainstOdpRegionFaults)
{
    const auto odp_counter = server.alloc(4096);
    auto& odp_mr = server.registerMemory(odp_counter, 4096,
                                         verbs::AccessFlags::odp());
    cqp.postFetchAdd(land, cmr->lkey(), odp_counter, odp_mr.rkey(), 7,
                     1);
    ASSERT_TRUE(waitFor(1));
    EXPECT_EQ(read64(server, odp_counter), 7u);
    EXPECT_EQ(server.driver().stats().faultsResolved, 1u);
    EXPECT_GE(cqp.stats().rnrNaksReceived, 1u);
}

TEST_F(AtomicFixture, AtomicBoundsViolationNaks)
{
    cqp.postFetchAdd(land, cmr->lkey(), counter + 4090, smr->rkey(), 1,
                     1);
    ASSERT_TRUE(waitFor(1));
    EXPECT_EQ(ccq.poll()[0].status, verbs::WcStatus::RemAccessErr);
}
