#include "suite.hh"

#include <cstdlib>
#include <string>

#include "exp/bench_main.hh"

namespace ibsim {
namespace bench {

std::vector<double>
axisFromEnv(const char* name, std::vector<double> fallback)
{
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    std::vector<double> out;
    const std::string list = raw;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = list.find(',', begin);
        out.push_back(exp::parseNumber<unsigned>(
            name, list.substr(begin, comma - begin), 0, 1u << 20));
        if (comma == std::string::npos)
            return out;
        begin = comma + 1;
    }
}

void
registerAllBenches(exp::Registry& registry)
{
    registerTable1(registry);
    registerFig1(registry);
    registerFig2(registry);
    registerFig4(registry);
    registerFig5(registry);
    registerFig6(registry);
    registerFig7(registry);
    registerFig8(registry);
    registerFig9(registry);
    registerFig11(registry);
    registerFig12(registry);
    registerFig13(registry);
    registerAblationWorkarounds(registry);
    registerAblationRegcache(registry);
    registerAblationReliability(registry);
    registerAblationOdpLatency(registry);
    registerSimcoreMicro(registry);
    registerChaosProbe(registry);
    registerFloodCapacity(registry);
    registerAtomicReplayThrash(registry);
    registerScaleSmoke(registry);
    registerFaultStorm(registry);
}

} // namespace bench
} // namespace ibsim
