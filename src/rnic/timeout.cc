#include "rnic/timeout.hh"

#include <algorithm>
#include <cassert>

namespace ibsim {
namespace rnic {

namespace {

/**
 * Timeout detection multiplier: T_o = factor * T_tr, within the spec's
 * [1, 4] band. 2.0 matches the measured lower limits (~537 ms at
 * c0 = 16, ~33 ms at c0 = 12).
 */
constexpr double timeoutDetectionFactor = 2.0;

} // namespace

Time
timeoutInterval(std::uint8_t cack)
{
    assert(cack <= maxCack);
    if (cack == 0)
        return Time::max();
    return Time::ns(4096ll << cack);
}

std::uint8_t
effectiveCack(std::uint8_t cack, std::uint8_t min_cack)
{
    if (cack == 0)
        return 0;
    return std::max(cack, min_cack);
}

Time
detectionTime(std::uint8_t cack, const DeviceProfile& profile)
{
    const std::uint8_t eff = effectiveCack(cack, profile.minCack);
    if (eff == 0)
        return Time::max();
    return timeoutInterval(eff) * timeoutDetectionFactor;
}

} // namespace rnic
} // namespace ibsim
