/**
 * @file
 * Local ACK Timeout arithmetic (IBA spec Sec. 9.7.6.1.3; paper Sec. II-C).
 *
 * A QP's Local ACK Timeout C_ack is a 5-bit exponent defining the timeout
 * interval T_tr = 4.096 us * 2^C_ack. C_ack = 0 disables the timeout.
 * Vendors clamp non-zero values from below by a device minimum c0, and the
 * spec only requires the detection time T_o to fall within
 * [T_tr, 4 * T_tr]; the model detects at T_o = 2 * T_tr on every device.
 */

#ifndef IBSIM_RNIC_TIMEOUT_HH
#define IBSIM_RNIC_TIMEOUT_HH

#include <cstdint>

#include "rnic/device_profile.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace rnic {

/** Largest encodable C_ack (5-bit field). */
constexpr std::uint8_t maxCack = 31;

/**
 * The timeout interval T_tr for an exponent, without vendor clamping.
 * Returns Time::max() for the disabled encoding (0).
 */
Time timeoutInterval(std::uint8_t cack);

/**
 * Vendor-clamped effective exponent: max(cack, c0), except 0 stays 0
 * (disabled).
 */
std::uint8_t effectiveCack(std::uint8_t cack, std::uint8_t min_cack);

/**
 * Modeled detection time T_o for a QP on a device: twice the T_tr of the
 * device-clamped exponent. Time::max() when disabled.
 */
Time detectionTime(std::uint8_t cack, const DeviceProfile& profile);

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_TIMEOUT_HH
