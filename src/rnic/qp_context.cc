#include "rnic/qp_context.hh"

namespace ibsim {
namespace rnic {

std::int32_t
psnDiff(std::uint32_t a, std::uint32_t b)
{
    // Signed distance on the 24-bit ring: shift the 24-bit difference into
    // the top of a 32-bit int and arithmetically shift back down.
    const std::uint32_t d = (a - b) & 0xffffff;
    return (static_cast<std::int32_t>(d << 8)) >> 8;
}

} // namespace rnic
} // namespace ibsim
