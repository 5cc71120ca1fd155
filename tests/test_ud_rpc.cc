/**
 * @file
 * Tests of the UD transport and the datagram RPC layer (the HERD/FaSST
 * design point from the paper's related work).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "rpc/rpc.hh"

using namespace ibsim;

namespace {

struct UdFixture : public ::testing::Test
{
    Cluster cluster{rnic::DeviceProfile::connectX4(), 3, 41};
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    Node& c = cluster.node(2);
};

verbs::QpConfig
ud()
{
    verbs::QpConfig config;
    config.transport = verbs::Transport::Ud;
    return config;
}

} // namespace

TEST_F(UdFixture, DatagramReachesAnyAddressedQp)
{
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    auto aqp = a.createQp(acq, ud());
    auto bqp = b.createQp(bcq, ud());
    aqp.connect(0, 0);
    bqp.connect(0, 0);

    const auto src = a.alloc(4096);
    const auto dst = b.alloc(4096);
    a.touch(src, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, 4096, verbs::AccessFlags::pinned());
    a.memory().write(src, std::vector<std::uint8_t>(32, 0x77));

    bqp.postRecv(dst, bmr.lkey(), 4096, 5);
    aqp.postSendUd({b.lid(), bqp.qpn()}, src, amr.lkey(), 32, 6);
    ASSERT_TRUE(cluster.runUntil(
        [&] { return bcq.totalCompletions() == 1; }, Time::ms(10)));

    auto wcs = bcq.poll();
    EXPECT_EQ(wcs[0].wrId, 5u);
    // The datagram carries its source address for reply routing.
    EXPECT_EQ(wcs[0].srcLid, a.lid());
    EXPECT_EQ(wcs[0].srcQpn, aqp.qpn());
    EXPECT_EQ(b.memory().read(dst, 32),
              std::vector<std::uint8_t>(32, 0x77));
}

TEST_F(UdFixture, OneQpTalksToManyPeers)
{
    auto& acq = a.createCq();
    auto aqp = a.createQp(acq, ud());
    aqp.connect(0, 0);
    const auto src = a.alloc(4096);
    a.touch(src, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());

    // Two receivers on different nodes, one sender QP.
    auto& bcq = b.createCq();
    auto bqp = b.createQp(bcq, ud());
    bqp.connect(0, 0);
    const auto bdst = b.alloc(4096);
    auto& bmr = b.registerMemory(bdst, 4096, verbs::AccessFlags::pinned());
    bqp.postRecv(bdst, bmr.lkey(), 4096, 1);

    auto& ccq = c.createCq();
    auto cqp = c.createQp(ccq, ud());
    cqp.connect(0, 0);
    const auto cdst = c.alloc(4096);
    auto& cmr = c.registerMemory(cdst, 4096, verbs::AccessFlags::pinned());
    cqp.postRecv(cdst, cmr.lkey(), 4096, 2);

    aqp.postSendUd({b.lid(), bqp.qpn()}, src, amr.lkey(), 16, 10);
    aqp.postSendUd({c.lid(), cqp.qpn()}, src, amr.lkey(), 16, 11);
    ASSERT_TRUE(cluster.runUntil(
        [&] {
            return bcq.totalCompletions() == 1 &&
                   ccq.totalCompletions() == 1;
        },
        Time::ms(10)));
}

TEST_F(UdFixture, LossIsSilentAndNonFatal)
{
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 1.0));
    cluster.fabric().setFaultHook(&loss);
    auto& acq = a.createCq();
    auto aqp = a.createQp(acq, ud());
    aqp.connect(0, 0);
    const auto src = a.alloc(4096);
    a.touch(src, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());

    aqp.postSendUd({b.lid(), 12345}, src, amr.lkey(), 16, 1);
    EXPECT_EQ(acq.totalCompletions(), 1u);  // local completion regardless
    cluster.drain(Time::ms(10));
    EXPECT_NE(aqp.context().state, rnic::QpState::Error);
}

TEST(RpcTest, EchoRoundTrip)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 43);
    rpc::RpcServer server(cluster, cluster.node(1),
                          [](const std::vector<std::uint8_t>& req) {
                              auto resp = req;
                              for (auto& b : resp)
                                  b ^= 0xff;
                              return resp;
                          });
    rpc::RpcClient client(cluster, cluster.node(0), server.address());

    const std::vector<std::uint8_t> req{1, 2, 3, 4};
    const auto id = client.call(req);
    ASSERT_TRUE(cluster.runUntil([&] { return client.completed(id); },
                                 Time::ms(50)));
    EXPECT_FALSE(client.failed(id));
    EXPECT_EQ(client.response(id),
              (std::vector<std::uint8_t>{0xfe, 0xfd, 0xfc, 0xfb}));
    EXPECT_EQ(server.requestsServed(), 1u);
}

TEST(RpcTest, PipelinedCallsAllComplete)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 43);
    rpc::RpcServer server(cluster, cluster.node(1),
                          [](const std::vector<std::uint8_t>& req) {
                              return req;
                          });
    rpc::RpcClient client(cluster, cluster.node(0), server.address());

    std::vector<std::uint64_t> ids;
    for (std::uint8_t i = 0; i < 32; ++i)
        ids.push_back(client.call({i}));
    ASSERT_TRUE(cluster.runUntil(
        [&] {
            for (auto id : ids) {
                if (!client.completed(id))
                    return false;
            }
            return true;
        },
        Time::ms(100)));
    for (std::uint8_t i = 0; i < 32; ++i)
        EXPECT_EQ(client.response(ids[i])[0], i);
    EXPECT_EQ(client.stats().retries, 0u);
}

TEST(RpcTest, CoarseTimeoutRecoversFromLoss)
{
    Cluster cluster(rnic::DeviceProfile::knl(), 2, 43);
    rpc::RpcServer server(cluster, cluster.node(1),
                          [](const std::vector<std::uint8_t>& req) {
                              return req;
                          });
    rpc::RpcClientConfig config;
    config.retryTimeout = Time::ms(2);
    // Each attempt survives 30% loss both ways with p ~ 0.5: a budget of
    // 20 retries makes exhausting it negligible for any loss seed.
    config.maxRetries = 20;
    rpc::RpcClient client(cluster, cluster.node(0), server.address(),
                          config);
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 0.3));
    cluster.fabric().setFaultHook(&loss);

    const Time start = cluster.now();
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 50; ++i)
        ids.push_back(client.call({static_cast<std::uint8_t>(i)}));
    ASSERT_TRUE(cluster.runUntil(
        [&] {
            for (auto id : ids) {
                if (!client.completed(id))
                    return false;
            }
            return true;
        },
        Time::sec(2)));
    EXPECT_GT(client.stats().retries, 0u);
    EXPECT_EQ(client.stats().failed, 0u);
    // Whole batch recovered at the millisecond scale -- no RC transport
    // timeout anywhere near the path.
    EXPECT_LT((cluster.now() - start).toMs(), 200.0);
}

TEST(RpcTest, GivesUpAfterRetries)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, 43);
    rpc::RpcServer server(cluster, cluster.node(1),
                          [](const std::vector<std::uint8_t>& req) {
                              return req;
                          });
    rpc::RpcClientConfig config;
    config.retryTimeout = Time::us(200);
    config.maxRetries = 3;
    rpc::RpcClient client(cluster, cluster.node(0), server.address(),
                          config);
    chaos::FaultInjector loss(1);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, 1.0));
    cluster.fabric().setFaultHook(&loss);

    const auto id = client.call({9});
    cluster.drain(Time::ms(50));
    EXPECT_TRUE(client.completed(id));
    EXPECT_TRUE(client.failed(id));
    EXPECT_EQ(client.stats().failed, 1u);
}
