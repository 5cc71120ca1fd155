/**
 * @file
 * Core vocabulary of the verbs-like API.
 *
 * Names deliberately track InfiniBand verbs (work request, completion queue
 * entry, Local ACK Timeout, Retry Count, minimal RNR NAK delay) so the
 * paper's micro-benchmark (Fig. 3) can be transcribed almost verbatim
 * against this API.
 */

#ifndef IBSIM_VERBS_TYPES_HH
#define IBSIM_VERBS_TYPES_HH

#include <cstdint>
#include <string>

#include "simcore/time.hh"

namespace ibsim {
namespace verbs {

/** Work request opcodes (the subset the paper exercises). */
enum class WrOpcode : std::uint8_t
{
    Read,      ///< one-sided RDMA READ
    Write,     ///< one-sided RDMA WRITE
    Send,      ///< two-sided SEND (matches a posted RECV)
    Recv,      ///< receive-side WQE (reported in RQ completions)
    FetchAdd,  ///< 64-bit atomic fetch-and-add
    CompSwap,  ///< 64-bit atomic compare-and-swap
};

/** Transport service types (paper Sec. II lists UD/UC/RD/RC). */
enum class Transport : std::uint8_t
{
    Rc,  ///< Reliable Connection: acked, retransmitted, ordered
    Uc,  ///< Unreliable Connection: connected, no acks, loss is silent
    Ud,  ///< Unreliable Datagram: unconnected, per-WR addressing
};

/** Destination of a UD send (ibv_ah analogue). */
struct AddressHandle
{
    std::uint16_t lid = 0;
    std::uint32_t qpn = 0;
};

const char* transportName(Transport transport);

/** Completion status codes (ibv_wc_status subset). */
enum class WcStatus : std::uint8_t
{
    Success,
    RetryExcErr,     ///< IBV_WC_RETRY_EXC_ERR: transport retries exhausted
    RnrRetryExcErr,  ///< IBV_WC_RNR_RETRY_EXC_ERR
    RemAccessErr,    ///< IBV_WC_REM_ACCESS_ERR
    WrFlushErr,      ///< IBV_WC_WR_FLUSH_ERR: flushed after QP error
    LocProtErr,      ///< IBV_WC_LOC_PROT_ERR: bad local key or range
    LocQpOpErr,      ///< IBV_WC_LOC_QP_OP_ERR: verb not in the transport,
                     ///< or QP not yet connected
    LocLenErr,       ///< IBV_WC_LOC_LEN_ERR: UD message over one MTU
};

const char* wrOpcodeName(WrOpcode op);
const char* wcStatusName(WcStatus status);

/**
 * Async event classes (ibv_event_type subset). Port/path events are
 * raised by the fabric's port-event model (net::PortEvent) and forwarded
 * by the RNIC; QP events are raised by the RNIC's own error/recovery
 * machinery.
 */
enum class AsyncEventType : std::uint8_t
{
    PortActive,   ///< IBV_EVENT_PORT_ACTIVE
    PortError,    ///< IBV_EVENT_PORT_ERR
    PathActive,   ///< path (mesh link) to peerLid recovered
    PathError,    ///< path (mesh link) to peerLid cut
    QpFatal,      ///< IBV_EVENT_QP_FATAL: a QP entered the Error state
    QpRecovered,  ///< a QP completed the reset->init->RTS re-arm
};

const char* asyncEventName(AsyncEventType type);

/**
 * An asynchronous event (ibv_async_event analogue) delivered to taps
 * registered with rnic::Rnic::addAsyncEventTap().
 */
struct AsyncEvent
{
    AsyncEventType type = AsyncEventType::PortError;
    std::uint16_t lid = 0;      ///< local port the event concerns
    std::uint16_t peerLid = 0;  ///< far end (path/QP events; 0 otherwise)
    std::uint32_t qpn = 0;      ///< affected QP (QP events; 0 otherwise)
    bool redundantPath = false; ///< path events: reroute was possible
    Time at;

    std::string str() const;
};

/**
 * A completion queue entry.
 */
struct WorkCompletion
{
    std::uint64_t wrId = 0;
    WcStatus status = WcStatus::Success;
    WrOpcode opcode = WrOpcode::Read;
    std::uint32_t byteLen = 0;
    std::uint32_t qpn = 0;

    /** @{ Datagram source (UD receives only; 0 otherwise). */
    std::uint16_t srcLid = 0;
    std::uint32_t srcQpn = 0;
    /** @} */

    Time completedAt;

    bool ok() const { return status == WcStatus::Success; }
    std::string str() const;
};

/**
 * Reliable Connection QP attributes (ibv_qp_attr subset).
 */
struct QpConfig
{
    /** Transport service type. The paper's experiments all use RC. */
    Transport transport = Transport::Rc;

    /**
     * Local ACK Timeout, the 5-bit exponent C_ack. The transport timeout
     * interval is T_tr = 4.096 us * 2^C_ack, clamped from below by the
     * device's vendor minimum (DeviceProfile::minCack). 0 disables the
     * timeout entirely (IBA spec).
     */
    std::uint8_t cack = 14;

    /** Retry Count C_retry: transport retries before RETRY_EXC_ERR. */
    std::uint8_t cretry = 7;

    /**
     * Minimal RNR NAK delay advertised by this QP as a *responder*: the
     * smallest period the remote sender must wait before retransmitting a
     * packet we RNR-NAKed.
     */
    Time minRnrNakDelay = Time::ms(1.28);

    /**
     * Requester pipelining window: requests in flight (sent, not yet
     * completed) at once. Models the send queue's processing window; a
     * go-back-N rewind replays at most this many requests per burst.
     */
    std::uint32_t maxInflight = 128;

    /**
     * Outstanding READ/ATOMIC limit (ibv max_rd_atomic; mlx5 hardware
     * caps this at 16). 0 leaves it unbounded — the default here, since
     * the paper's micro-benchmark posts thousands of READs per QP and
     * its observed behaviour is reproduced without the cap.
     */
    std::uint32_t maxRdAtomic = 0;
};

/** Scatter/gather element for local buffers. */
struct Sge
{
    std::uint64_t addr = 0;
    std::uint32_t length = 0;
    std::uint32_t lkey = 0;
};

} // namespace verbs
} // namespace ibsim

#endif // IBSIM_VERBS_TYPES_HH
