/**
 * @file
 * Modeled RNIC device profiles.
 *
 * Each profile captures the protocol-visible facts that tell the paper's
 * systems apart (Table I, Fig. 2, Sec. V): the vendor minimum of the
 * Local ACK Timeout, whether packet damming occurs, and the link. The
 * values the paper measured once and that hold on every device (the RNR
 * wait, the client-side ODP blind retransmission interval, the path MTU)
 * are the constants below.
 */

#ifndef IBSIM_RNIC_DEVICE_PROFILE_HH
#define IBSIM_RNIC_DEVICE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "odp/odp_config.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace rnic {

/** RNIC silicon generations appearing in the paper. */
enum class Model : std::uint8_t
{
    ConnectX3,
    ConnectX4,
    ConnectX5,
    ConnectX6,
};

const char* modelName(Model model);

/** Path MTU in bytes; messages beyond it are segmented. */
inline constexpr std::uint32_t pathMtu = 4096;

/**
 * The requester's actual RNR wait is this multiple of the delay value
 * carried in the RNR NAK (measured ~4.5 ms against a programmed 1.28 ms
 * minimum, Fig. 1).
 */
inline constexpr double rnrWaitMultiplier = 3.5;

/**
 * Client-side ODP blind retransmission interval: after discarding a
 * faulting READ response the requester retransmits the request this
 * often, regardless of fault resolution (~0.5 ms, Fig. 1).
 */
inline constexpr Time clientRexmitInterval = Time::us(500);

/**
 * Behavioural profile of one RNIC / system pairing.
 */
struct DeviceProfile
{
    /** @{ Catalog identity (paper Table I). */
    std::string systemName;
    std::string psid;
    Model model = Model::ConnectX4;
    int linkGbps = 56;
    std::string linkRate = "FDR";
    std::string driverVersion;
    std::string firmwareVersion;
    /** @} */

    /**
     * Vendor minimum of Local ACK Timeout (the c0 of Sec. II-C): requested
     * C_ack values below this clamp up. The paper estimates 12 for
     * ConnectX-5 and 16 for every other device (Fig. 2).
     */
    std::uint8_t minCack = 16;

    /**
     * Packet damming quirk (Sec. V): vendor feedback attributes it to a
     * ConnectX-4-specific page fault processing method; the paper also
     * observed it on the ConnectX-3 generation systems it could test and
     * never on ConnectX-6.
     */
    bool dammingQuirk = true;

    /**
     * Depth of the responder's atomic replay cache (the IBA "atomic
     * response resources"): how many recent atomic results are retained
     * to answer duplicate requests without re-executing. Nothing ties a
     * requester's window to this depth: it is bounded only by
     * QpConfig::maxInflight PSNs (default 128) and QpConfig::maxRdAtomic
     * (default 0, unlimited). A duplicate whose record has been evicted
     * gets no response.
     */
    std::size_t atomicReplayDepth = 128;

    /**
     * @{ Error/recovery switches (DESIGN.md §13). Both default off: a QP
     * whose retries exhaust stays in the Error state forever, exactly the
     * pre-recovery behaviour, unless the deployment opts in.
     */

    /**
     * Re-arm Error-state QPs when the path to their peer comes back up
     * (PathUp/PortUp async event): QP reset -> init -> RTS via a
     * CM-style handshake that re-synchronizes both endpoints' PSN
     * streams under a new reset epoch.
     */
    bool qpRecoveryOnPortUp = false;

    /**
     * SM-style reroute: when a path goes down but the subnet still has a
     * redundant link out of the port (PortEvent::redundantPath), re-
     * resolve the LID route after smRerouteDelay (rnic.cc) instead of
     * letting retries exhaust. Rerouted traffic passes the link-down gate
     * and pays one extra hop of latency.
     */
    bool smReroute = false;

    /** @} */

    /** ODP driver timing. */
    odp::FaultTiming faultTiming;

    /** Status-update failure quirk (Sec. VI); present on all devices. */
    odp::FloodQuirkConfig floodQuirk;

    /** @{ Canonical profiles for the four silicon generations. */
    static DeviceProfile connectX3();
    static DeviceProfile connectX4();
    static DeviceProfile connectX5();
    static DeviceProfile connectX6();
    /** @} */

    /** The eight systems of paper Table I, in table order. */
    static std::vector<DeviceProfile> table1();

    /** Convenience: the paper's KNL testbed (Private servers B, CX4). */
    static DeviceProfile knl();
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_DEVICE_PROFILE_HH
