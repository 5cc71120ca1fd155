/**
 * @file
 * Per-QP transport state shared by the requester and responder engines.
 *
 * A Reliable Connection QP keeps a requester side (send queue, outstanding
 * WQEs, retransmission machinery) and a responder side (expected PSN,
 * receive queue). The state lives here as a plain container; the protocol
 * logic lives in RcRequester / RcResponder.
 */

#ifndef IBSIM_RNIC_QP_CONTEXT_HH
#define IBSIM_RNIC_QP_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "rnic/ring.hh"
#include "simcore/event_queue.hh"
#include "simcore/time.hh"
#include "verbs/types.hh"

namespace ibsim {

namespace verbs {
class CompletionQueue;
} // namespace verbs

namespace rnic {

/** 24-bit PSN ring arithmetic: signed distance a - b. */
std::int32_t psnDiff(std::uint32_t a, std::uint32_t b);

/** Next PSN on the 24-bit ring. */
constexpr std::uint32_t
psnNext(std::uint32_t psn)
{
    return (psn + 1) & 0xffffff;
}

/** PSNs a message of @p length bytes occupies at @p mtu (at least one). */
constexpr std::uint32_t
segmentCount(std::uint32_t length, std::uint32_t mtu)
{
    const std::uint32_t n = (length + mtu - 1) / mtu;
    return n == 0 ? 1 : n;
}

/**
 * A send-side work queue element being processed by the requester.
 */
struct SendWqe
{
    std::uint64_t wrId = 0;
    verbs::WrOpcode op = verbs::WrOpcode::Read;
    std::uint64_t laddr = 0;
    std::uint32_t lkey = 0;
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t length = 0;

    std::uint32_t psn = 0;

    /** Packets this WQE occupies on the PSN ring (MTU segmentation). */
    std::uint32_t segments = 1;

    /** Response segments received so far (segmented READ). */
    std::uint32_t segmentsReceived = 0;

    /** Last PSN of this WQE's range. */
    std::uint32_t
    lastPsn() const
    {
        return (psn + segments - 1) & 0xffffff;
    }

    /** @{ Atomic operands (FetchAdd / CompSwap). */
    std::uint64_t atomicOperand = 0;
    std::uint64_t atomicCompare = 0;
    /** @} */

    /** Damming-quirk mark (see DESIGN.md #4). */
    bool dammed = false;

    /**
     * Whether this WQE, as head-of-line, already opened its damming
     * episode. Each stuck request dams at most once (the Fig. 7 cut-offs
     * follow from the *first* request's single pending period).
     */
    bool windowOpened = false;

    /** SEND/WRITE waiting on a sender-side page fault; not yet sendable. */
    bool blockedOnLocalFault = false;

    /** Transmission count (first send + retransmissions). */
    std::uint32_t transmissions = 0;

    Time postedAt;
    Time firstSentAt;
};

/** A receive-side WQE awaiting a SEND. */
struct RecvWqe
{
    std::uint64_t wrId = 0;
    std::uint64_t addr = 0;
    std::uint32_t length = 0;
    std::uint32_t lkey = 0;
};

/** Per-QP statistics for experiment analysis. */
struct QpStats
{
    std::uint64_t requestsSent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t rnrNaksReceived = 0;
    std::uint64_t seqNaksReceived = 0;
    std::uint64_t responsesDiscardedFault = 0;
    std::uint64_t responsesDiscardedStale = 0;
    std::uint64_t dammedDrops = 0;
    std::uint64_t completions = 0;

    /**
     * @{ UD responder accounting, read by the chaos oracle's U3
     * silent-drop invariant: every SEND datagram reaching a UD QP is
     * either consumed by a RECV (one Recv completion) or counted here —
     * nothing falls through silently.
     */
    /** SEND datagrams delivered to this UD QP by the fabric. */
    std::uint64_t udDeliveredSends = 0;
    /** Datagrams discarded: no RECV posted, truncation, ODP-cold buffer. */
    std::uint64_t udDrops = 0;
    /** @} */
};

/**
 * QP state machine (ibv_qp_state subset, DESIGN.md §13): the one record
 * of where a QP is in its lifecycle. connectQp lands in Rts; a QP whose
 * retries exhaust enters Error, and recovery re-arms it through Init
 * (the CM handshake) back to Rts.
 */
enum class QpState : std::uint8_t
{
    Reset,  ///< created, never connected
    Init,   ///< recovery handshake (CM re-arm) in flight; posts queue
    Rts,    ///< fully operational
    Error,  ///< retries exhausted; posts flush immediately
};

/**
 * The state of one RC queue pair.
 */
struct QpContext
{
    std::uint32_t qpn = 0;

    /** @{ Connection endpoint (set by connect()). */
    std::uint16_t dstLid = 0;
    std::uint32_t dstQpn = 0;
    /** @} */

    verbs::QpConfig config;
    verbs::CompletionQueue* cq = nullptr;

    /** @{ Requester state. */
    Ring<SendWqe> outstanding;  ///< sent, not yet completed
    std::uint32_t nextPsn = 0;
    std::uint32_t retryCount = 0;  ///< consecutive transport timeouts
    EventHandle retransmitTimer;
    EventHandle rnrTimer;

    /**
     * Damming episode flag: the QP is inside the head request's first
     * pending period (RNR wait or client-side fault gap). Requests posted
     * while this is set get the dammed mark, up to the device's
     * per-episode capacity. The episode closes when the pending period
     * ends (retransmission fires or NAK/timeout recovery).
     */
    bool dammingEpisode = false;
    std::uint32_t episodeDamsLeft = 0;

    /**
     * PSN of the next request the send engine will put on the wire.
     * Requests in [outstanding.front().psn, sendCursor) are in flight;
     * go-back-N recovery rewinds the cursor.
     */
    std::uint32_t sendCursor = 0;

    EventHandle clientRexmitTimer;
    /** @} */

    /** @{ Error/recovery machinery (DESIGN.md §13). */

    QpState state = QpState::Reset;

    /** The path to dstLid is currently cut (set from PathDown events). */
    bool pathDown = false;

    /**
     * The simulated SM rerouted this QP around a cut link: its packets
     * pass the fabric's link-down gate at one extra hop of latency.
     */
    bool rerouted = false;

    /**
     * Reset epoch, bumped by each recovery pass and stamped into every
     * packet; receivers discard stale-epoch traffic (see Packet::epoch).
     */
    std::uint16_t resetEpoch = 0;

    /** @{ CM re-arm handshake retry timer. */
    EventHandle cmTimer;
    std::uint8_t cmRetries = 0;
    /** @} */

    /** @} */

    /** @{ Responder state. */
    std::uint32_t expectedPsn = 0;
    Ring<RecvWqe> recvQueue;
    /** @} */

    QpStats stats;

    /** Whether the requester currently has work in flight. */
    bool active() const { return !outstanding.empty(); }
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_QP_CONTEXT_HH
