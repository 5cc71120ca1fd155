/**
 * @file
 * Reliable messaging two ways: hardware (RC) vs software (UC + retry
 * timer), under packet loss — the design point from the paper's related
 * work (Sec. VIII-C) that explains why the vendor-floored RC timeout makes
 * packet damming so expensive, and why tunable software timeouts are the
 * first family of workarounds.
 *
 * Run: ./build/examples/reliable_messaging
 */

#include <cstdio>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "swrel/soft_reliable.hh"

using namespace ibsim;

int
main()
{
    constexpr double lossRate = 0.02;
    constexpr int messages = 100;

    std::printf("== 100 synchronous 64-B messages at %.0f%% packet loss "
                "==\n\n", lossRate * 100);

    // --- Hardware reliability: RC with the vendor-floored timeout.
    {
        Cluster cluster(rnic::DeviceProfile::knl(), 2, 7);
        Node& a = cluster.node(0);
        Node& b = cluster.node(1);
        auto& acq = a.createCq();
        auto& bcq = b.createCq();
        verbs::QpConfig config;
        config.cack = 1;  // requests 8 us; the CX4 floor gives ~537 ms
        auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq, config);

        const auto src = a.alloc(4096);
        const auto dst = b.alloc(4096);
        a.touch(src, 4096);
        auto& amr = a.registerMemory(src, 4096,
                                     verbs::AccessFlags::pinned());
        auto& bmr = b.registerMemory(dst, 4096,
                                     verbs::AccessFlags::pinned());
        chaos::FaultInjector loss(1);
        loss.addStage(
            std::make_unique<chaos::DropStage>(chaos::PacketFilter{},
                                               lossRate));
        cluster.fabric().setFaultHook(&loss);

        const Time start = cluster.now();
        for (int i = 0; i < messages; ++i) {
            aqp.postWrite(src, amr.lkey(), dst, bmr.rkey(), 64, i);
            cluster.runUntil(
                [&] { return acq.totalCompletions() >= i + 1u; },
                cluster.now() + Time::sec(30));
        }
        std::printf("RC (hardware retransmission, C_ack floor 537 ms):\n"
                    "  total %.3f s, %llu transport timeouts\n\n",
                    (cluster.now() - start).toSec(),
                    static_cast<unsigned long long>(
                        aqp.stats().timeouts));
    }

    // --- Software reliability: UC + 1 ms application retry timer.
    {
        Cluster cluster(rnic::DeviceProfile::knl(), 2, 7);
        swrel::SoftChannelConfig config;
        config.retryTimeout = Time::ms(1);
        swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                           cluster.node(1), config);
        chaos::FaultInjector loss(1);
        loss.addStage(
            std::make_unique<chaos::DropStage>(chaos::PacketFilter{},
                                               lossRate));
        cluster.fabric().setFaultHook(&loss);

        const Time start = cluster.now();
        for (int i = 0; i < messages; ++i) {
            const auto seq =
                channel.send(std::vector<std::uint8_t>(64, 0x55));
            cluster.runUntil([&] { return channel.acked(seq); },
                             cluster.now() + Time::sec(30));
        }
        std::printf("UC + software retry (1 ms timer):\n"
                    "  total %.3f s, %llu app-level retransmissions, "
                    "%llu delivered\n\n",
                    (cluster.now() - start).toSec(),
                    static_cast<unsigned long long>(
                        channel.stats().retransmissions),
                    static_cast<unsigned long long>(
                        channel.stats().delivered));
    }

    std::printf("Same loss, three orders of magnitude apart: the RC "
                "timeout cannot be tuned below\nthe vendor minimum "
                "(paper Sec. II-C), while the software timer can follow "
                "the\nactual round-trip time.\n");
    return 0;
}
