/**
 * @file
 * Modeled RNIC device profiles.
 *
 * Each profile captures the protocol-visible behaviours the paper measured
 * per device (Table I, Fig. 2, Secs. IV-VI): the vendor minimum of the
 * Local ACK Timeout, the RNR wait behaviour, the client-side ODP blind
 * retransmission interval, and which hardware quirks (packet damming /
 * status-update failure) the device exhibits.
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

    /** Path MTU in bytes; messages beyond it are segmented. */
    std::uint32_t mtu = 4096;

    /**
     * Vendor minimum of Local ACK Timeout (the c0 of Sec. II-C): requested
     * C_ack values below this clamp up. The paper estimates 12 for
     * ConnectX-5 and 16 for every other device (Fig. 2).
     */
    std::uint8_t minCack = 16;

    /**
     * Timeout detection multiplier: T_o = factor * T_tr, within the
     * spec's [1, 4] band. 2.0 matches the measured lower limits
     * (~537 ms at c0 = 16, ~33 ms at c0 = 12).
     */
    double timeoutDetectionFactor = 2.0;

    /**
     * Detection lengthens under QP load (paper Sec. VI-C observed longer
     * timeout intervals with many QPs): effective T_o is scaled by
     * (1 + timeoutLoadFactor * (active QPs - 1)).
     */
    double timeoutLoadFactor = 0.004;

    /**
     * The requester's actual RNR wait is this multiple of the delay value
     * carried in the RNR NAK (measured ~4.5 ms against a programmed
     * 1.28 ms minimum, Fig. 1).
     */
    double rnrWaitMultiplier = 3.5;

    /**
     * Client-side ODP blind retransmission interval: after discarding a
     * faulting READ response the requester retransmits the request this
     * often, regardless of fault resolution (~0.5 ms, Fig. 1).
     */
    Time clientRexmitInterval = Time::us(500);

    /**
     * Under flood the blind retransmission backs off: the effective gap
     * is clientRexmitInterval * (1 + rexmitLoadFactor * stale QPs). The
     * paper saw READ retransmissions every several tens of milliseconds
     * during SparkUCX floods (Sec. VII-B).
     */
    double rexmitLoadFactor = 0.1;

    /**
     * Packet damming quirk (Sec. V): vendor feedback attributes it to a
     * ConnectX-4-specific page fault processing method; the paper also
     * observed it on the ConnectX-3 generation systems it could test and
     * never on ConnectX-6.
     */
    bool dammingQuirk = true;

    /**
     * How many requests one pending period can poison. The paper
     * demonstrates up to three victims (Fig. 7, four operations); a small
     * hardware fault-FIFO bound keeps a long posting stream from being
     * black-holed wholesale, matching Fig. 9's lack of mass aborts.
     */
    std::uint32_t dammingCapacity = 16;

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
     * (PathUp/PortUp async event): QP reset -> init -> RTR -> RTS via a
     * CM-style handshake that re-synchronizes both endpoints' PSN
     * streams under a new reset epoch.
     */
    bool qpRecoveryOnPortUp = false;

    /**
     * SM-style reroute: when a path goes down but the subnet still has a
     * redundant link out of the port (PortEvent::redundantPath), re-
     * resolve the LID route after smRerouteDelay instead of letting
     * retries exhaust. Rerouted traffic passes the link-down gate and
     * pays one extra hop of latency.
     */
    bool smReroute = false;

    /** SM sweep delay before a reroute takes effect. */
    Time smRerouteDelay = Time::ms(1);

    /** @{ CM re-arm handshake retry policy. */
    Time cmRetryInterval = Time::ms(1);
    std::uint8_t cmRetryLimit = 7;
    /** @} */

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
