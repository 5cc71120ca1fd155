/**
 * @file
 * Pitfall detectors over packet captures.
 *
 * The paper's Sec. IX stresses that the pitfalls are hard to detect because
 * they produce no error completions — only raw packet traces betray them.
 * These detectors encode the signatures the authors describe:
 *
 *  - packet damming: a long silent gap on a connection (a brewing
 *    transport timeout) ended by a timeout-driven retransmission;
 *  - packet flood: the same request PSN retransmitted massively on a QP
 *    over an extended period.
 */

#ifndef IBSIM_PITFALL_DETECTORS_HH
#define IBSIM_PITFALL_DETECTORS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "capture/capture.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace pitfall {

/** One detected damming incident. */
struct DammingEvent
{
    std::uint32_t qpn = 0;       ///< requester QPN
    Time gapStart;               ///< last packet before the silence
    Time gap;                    ///< silent period (~the timeout T_o)
    std::uint32_t stuckPsn = 0;  ///< PSN retransmitted after the gap
};

/** One detected flood incident. */
struct FloodEvent
{
    std::uint32_t qpn = 0;
    std::uint32_t psn = 0;
    std::uint64_t retransmissions = 0;
    Time firstSeen;
    Time lastSeen;
};

/** Flood detector configuration. */
struct FloodDetectorConfig
{
    /** Retransmissions of one PSN to qualify as a flood. */
    std::uint64_t minRetransmissions = 20;
};

/**
 * Scan a capture for damming incidents: request retransmissions that end
 * a silent gap of at least 100 ms (the spec floor for c0 = 16).
 */
std::vector<DammingEvent>
detectDamming(const capture::PacketCapture& capture);

/** Scan a capture for flood incidents. */
std::vector<FloodEvent>
detectFlood(const capture::PacketCapture& capture,
            FloodDetectorConfig config = {});

/** Render a one-line-per-event report. */
std::string formatReport(const std::vector<DammingEvent>& events);
std::string formatReport(const std::vector<FloodEvent>& events);

} // namespace pitfall
} // namespace ibsim

#endif // IBSIM_PITFALL_DETECTORS_HH
