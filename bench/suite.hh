/**
 * @file
 * The bench suite: every paper figure/table reproduction, registered by
 * name into an exp::Registry. Each bench_*.cc defines one register
 * function; registerAllBenches() wires them all, and is what both the
 * standalone binaries (standalone_main.cc) and the multiplexed
 * odp_bench_cli runner call.
 */

#ifndef IBSIM_BENCH_SUITE_HH
#define IBSIM_BENCH_SUITE_HH

#include <vector>

#include "exp/registry.hh"

namespace ibsim {
namespace bench {

/**
 * A count-valued sweep axis the environment may override: @p name holds
 * a comma-separated list of integers >= @p min (e.g.
 * IBSIM_SCALE_JOBS=1,4). Unset or empty keeps @p fallback; a malformed
 * or too-small entry is an error exit (exp::parseNumber).
 */
std::vector<double> axisFromEnv(const char* name,
                                std::vector<double> fallback,
                                unsigned min);

void registerTable1(exp::Registry& registry);
void registerFig1(exp::Registry& registry);
void registerFig2(exp::Registry& registry);
void registerFig4(exp::Registry& registry);
void registerFig5(exp::Registry& registry);
void registerFig6(exp::Registry& registry);
void registerFig7(exp::Registry& registry);
void registerFig8(exp::Registry& registry);
void registerFig9(exp::Registry& registry);
void registerFig11(exp::Registry& registry);
void registerFig12(exp::Registry& registry);
void registerFig13(exp::Registry& registry);
void registerAblationWorkarounds(exp::Registry& registry);
void registerAblationRegcache(exp::Registry& registry);
void registerAblationReliability(exp::Registry& registry);
void registerAblationOdpLatency(exp::Registry& registry);
void registerSimcoreMicro(exp::Registry& registry);
void registerChaosProbe(exp::Registry& registry);
void registerFloodCapacity(exp::Registry& registry);
void registerAtomicReplayThrash(exp::Registry& registry);
void registerScaleSmoke(exp::Registry& registry);
void registerFaultStorm(exp::Registry& registry);

/** Register the full suite, in paper order. */
void registerAllBenches(exp::Registry& registry);

} // namespace bench
} // namespace ibsim

#endif // IBSIM_BENCH_SUITE_HH
