/**
 * @file
 * Tests of the Cluster/Node composition layer: time driving, node
 * management and the diagnostic report.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cluster/cluster.hh"
#include "pitfall/microbench.hh"

using namespace ibsim;

TEST(ClusterApi, NodesGetSequentialLids)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 3, 1);
    EXPECT_EQ(cluster.nodeCount(), 3u);
    EXPECT_EQ(cluster.node(0).lid(), 1);
    EXPECT_EQ(cluster.node(1).lid(), 2);
    EXPECT_EQ(cluster.node(2).lid(), 3);

    Node& extra = cluster.addNode(rnic::DeviceProfile::connectX6());
    EXPECT_EQ(extra.lid(), 4);
    EXPECT_EQ(extra.rnic().profile().model, rnic::Model::ConnectX6);
}

TEST(ClusterApi, AdvanceAndRunUntilDriveVirtualTime)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 1);
    EXPECT_EQ(cluster.now(), Time());
    cluster.advance(Time::ms(3));
    EXPECT_EQ(cluster.now(), Time::ms(3));

    bool fired = false;
    cluster.events().scheduleAfter(Time::ms(2), [&] { fired = true; });
    EXPECT_TRUE(cluster.runUntil([&] { return fired; }, Time::sec(1)));
    EXPECT_EQ(cluster.now(), Time::ms(5));
}

TEST(ClusterApi, ReportSummarizesTheRun)
{
    // Run the 2-READ damming case and check the report names the events.
    pitfall::MicroBenchConfig config;
    config.numOps = 2;
    config.interval = Time::ms(1);
    config.odpMode = pitfall::OdpMode::BothSide;
    config.capture = false;
    pitfall::MicroBenchmark bench(config, rnic::DeviceProfile::knl(), 7);
    auto r = bench.run();
    ASSERT_TRUE(r.completedAll);

    const std::string report = bench.cluster().report();
    EXPECT_NE(report.find("2 nodes"), std::string::npos);
    EXPECT_NE(report.find("timeouts=1"), std::string::npos);
    EXPECT_NE(report.find("dammed="), std::string::npos);
    EXPECT_NE(report.find("faults="), std::string::npos);
    // Fabric accounting is consistent within the report.
    EXPECT_NE(report.find("fabric: sent="), std::string::npos);
}

TEST(ClusterApi, HeterogeneousProfilesPerNode)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 1, 1);
    Node& cx5 = cluster.addNode(rnic::DeviceProfile::connectX5());
    EXPECT_EQ(cluster.node(0).rnic().profile().minCack, 16);
    EXPECT_EQ(cx5.rnic().profile().minCack, 12);
}
