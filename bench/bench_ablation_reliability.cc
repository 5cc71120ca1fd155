/**
 * @file
 * Ablation: hardware vs software reliability under packet loss — the
 * design point behind the paper's lessons (Sec. VIII-C, Sec. IX-A).
 *
 * The same message stream runs over (a) RC, where a lost packet costs one
 * vendor-floored transport timeout (>= ~537 ms on these devices), and
 * (b) UC plus a software retry timer, where recovery costs the tunable
 * software timeout (~1 ms). The gap is the reason packet damming hurts so
 * much, and the reason software-level timeouts are the paper's first
 * workaround family.
 */

#include "suite.hh"

#include <memory>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "swrel/soft_reliable.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

constexpr std::size_t messages = 500;
constexpr std::uint32_t messageBytes = 64;

double
runRc(double loss_rate, std::uint64_t seed)
{
    Cluster cluster(rnic::DeviceProfile::knl(), 2, seed);
    Node& a = cluster.node(0);
    Node& b = cluster.node(1);
    auto& acq = a.createCq();
    auto& bcq = b.createCq();
    verbs::QpConfig config;
    config.cack = 1;  // clamps to the 537 ms vendor floor
    auto [aqp, bqp] = cluster.connectRc(a, acq, b, bcq, config);

    const auto src = a.alloc(4096);
    const auto dst = b.alloc(messages * messageBytes);
    a.touch(src, 4096);
    auto& amr = a.registerMemory(src, 4096, verbs::AccessFlags::pinned());
    auto& bmr = b.registerMemory(dst, messages * messageBytes,
                                 verbs::AccessFlags::pinned());

    chaos::FaultInjector loss(seed);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, loss_rate));
    cluster.fabric().setFaultHook(&loss);

    // Synchronous RPC-style messaging: one outstanding write at a time,
    // so a lost packet has no follow-up traffic to provoke a NAK -- only
    // the transport timeout recovers it.
    const Time start = cluster.now();
    for (std::size_t i = 0; i < messages; ++i) {
        aqp.postWrite(src, amr.lkey(), dst + i * messageBytes,
                      bmr.rkey(), messageBytes, i);
        if (!cluster.runUntil(
                [&] {
                    return acq.totalCompletions() >= i + 1 ||
                           aqp.context().state == rnic::QpState::Error;
                },
                cluster.now() + Time::sec(60)))
            break;
        if (aqp.context().state == rnic::QpState::Error)
            break;
        cluster.advance(Time::us(10));
    }
    return (cluster.now() - start).toSec();
}

double
runSoft(double loss_rate, std::uint64_t seed)
{
    Cluster cluster(rnic::DeviceProfile::knl(), 2, seed);
    swrel::SoftChannelConfig config;
    config.retryTimeout = Time::ms(1);
    config.maxRetries = 50;
    swrel::SoftReliableChannel channel(cluster, cluster.node(0),
                                       cluster.node(1), config);
    chaos::FaultInjector loss(seed);
    loss.addStage(
        std::make_unique<chaos::DropStage>(chaos::PacketFilter{}, loss_rate));
    cluster.fabric().setFaultHook(&loss);

    // Same synchronous pattern over the software channel.
    const Time start = cluster.now();
    const std::vector<std::uint8_t> payload(messageBytes, 0xAB);
    for (std::size_t i = 0; i < messages; ++i) {
        const auto seq = channel.send(payload);
        if (!cluster.runUntil([&] { return channel.acked(seq); },
                              cluster.now() + Time::sec(60)))
            break;
        cluster.advance(Time::us(10));
    }
    return (cluster.now() - start).toSec();
}

} // namespace

void
registerAblationReliability(exp::Registry& registry)
{
    registry.add(
        {"ablation_reliability",
         "hardware (RC) vs software (UC + retry timer) reliability",
         [](const exp::RunContext& ctx) {
             const std::size_t trials = ctx.trials(5, 2);

             exp::Sweep sweep;
             sweep.axis("loss_rate", {0.0, 0.001, 0.005, 0.02}, 3);

             // Both channels run inside one trial with the same seed, so
             // the RC/soft ratio compares identical loss patterns.
             auto result = ctx.runner("ablation_reliability").run(
                 sweep, trials,
                 [](const exp::Cell& cell, std::uint64_t seed) {
                     const double loss = cell.num("loss_rate");
                     const double rc = runRc(loss, seed);
                     const double soft = runSoft(loss, seed);
                     return exp::Metrics{}
                         .set("rc_total_s", rc)
                         .set("soft_total_s", soft)
                         .set("ratio", soft > 0 ? rc / soft : 0.0);
                 });

             auto sink = ctx.sink("ablation_reliability");
             char head[200];
             std::snprintf(
                 head, sizeof(head),
                 "Ablation: hardware (RC) vs software (UC + retry "
                 "timer) reliability\n   (%zu writes of %u B; RC "
                 "C_ack=1 -> 537 ms floor; software timer 1 ms)",
                 messages, messageBytes);
             auto columns = std::vector<exp::MetricColumn>{
                 exp::col("rc_total_s", exp::Stat::Mean, 3,
                          "RC_total_s"),
                 exp::col("soft_total_s", exp::Stat::Mean, 3,
                          "soft_total_s"),
                 exp::col("ratio", exp::Stat::Mean, 1, "RC/soft")};
             sink.table(head, result, columns);
             sink.note(
                 "Every lost packet costs RC a full vendor-floored "
                 "timeout; the software timer\nrecovers in milliseconds "
                 "(Koop et al.'s case for software reliability, and "
                 "why\nthe paper's damming losses are so expensive).");
         }});
}

} // namespace bench
} // namespace ibsim
