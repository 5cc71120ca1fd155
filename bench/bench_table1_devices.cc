/**
 * @file
 * Paper Table I: the InfiniBand systems and RNIC details, as modeled.
 *
 * Prints the catalog together with each profile's behavioural parameters
 * (vendor C_ack floor, quirk flags), which is what the rest of the
 * reproduction consumes; the JSON rows carry the modeled parameters.
 */

#include "suite.hh"

#include "rnic/device_profile.hh"
#include "rnic/timeout.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

void
registerTable1(exp::Registry& registry)
{
    registry.add(
        {"table1", "InfiniBand systems and RNIC details (Table I)",
         [](const exp::RunContext& ctx) {
             auto sink = ctx.sink("table1");
             const auto systems = rnic::DeviceProfile::table1();

             sink.note("== Table I: InfiniBand systems and RNIC details "
                       "==");
             sink.blank();
             char line[200];
             std::snprintf(line, sizeof(line),
                           "%-22s %-15s %-12s %-14s %-12s %-10s",
                           "System name", "PSID", "Model", "Link",
                           "Driver", "Firmware");
             sink.note(line);
             for (const auto& p : systems) {
                 char link[32];
                 std::snprintf(link, sizeof(link), "%dGbps %s",
                               p.linkGbps, p.linkRate.c_str());
                 std::snprintf(line, sizeof(line),
                               "%-22s %-15s %-12s %-14s %-12s %-10s",
                               p.systemName.c_str(), p.psid.c_str(),
                               rnic::modelName(p.model), link,
                               p.driverVersion.c_str(),
                               p.firmwareVersion.c_str());
                 sink.note(line);
             }
             sink.blank();
             sink.note("== Modeled behavioural parameters ==");
             sink.blank();
             std::snprintf(line, sizeof(line),
                           "%-22s %-8s %-14s %-10s %-12s %-12s",
                           "System name", "c0", "T_o floor", "damming",
                           "RNR mult", "rexmit ivl");
             sink.note(line);

             std::vector<std::string> names;
             for (const auto& p : systems)
                 names.push_back(p.systemName);
             exp::Sweep sweep;
             sweep.axis("system", names);

             auto result = ctx.runner("table1").run(
                 sweep, 1,
                 [&](const exp::Cell& cell, std::uint64_t) {
                     const auto& p =
                         systems[cell.valueIndex("system")];
                     return exp::Metrics{}
                         .set("min_cack", static_cast<double>(p.minCack))
                         .set("to_floor_ms",
                              rnic::detectionTime(1, p).toMs())
                         .set("damming_quirk", p.dammingQuirk)
                         .set("rnr_wait_mult", rnic::rnrWaitMultiplier)
                         .set("rexmit_interval_us",
                              rnic::clientRexmitInterval.toUs());
                 });

             for (const auto& p : systems) {
                 std::snprintf(line, sizeof(line),
                               "%-22s %-8u %-14s %-10s %-12.1f %-12s",
                               p.systemName.c_str(), p.minCack,
                               rnic::detectionTime(1, p).str().c_str(),
                               p.dammingQuirk ? "yes" : "no",
                               rnic::rnrWaitMultiplier,
                               rnic::clientRexmitInterval.str().c_str());
                 sink.note(line);
             }
             sink.note("\nT_o floor = detection time at the vendor "
                       "minimum (paper Fig. 2 lower limits:\n~500 ms "
                       "for ConnectX-3/4/6, ~30 ms for ConnectX-5).");
             sink.jsonOnly("table1", result);
         }});
}

} // namespace bench
} // namespace ibsim
