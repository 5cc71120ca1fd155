/**
 * @file
 * The packet type exchanged between simulated RNICs.
 *
 * One Packet models one InfiniBand transport packet at the granularity the
 * paper's analysis works at: opcode, PSN, addressing, NAK syndromes and
 * payload. Messages are mapped to one packet per operation (see DESIGN.md,
 * "modeling decisions"): the paper's experiments use 32/100-byte messages,
 * well below a single MTU, so the per-packet PSN bookkeeping of multi-MTU
 * messages is not needed to reproduce any figure.
 */

#ifndef IBSIM_NET_PACKET_HH
#define IBSIM_NET_PACKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/time.hh"

namespace ibsim {
namespace net {

/** Transport opcodes, matching the subset of IBA the paper exercises. */
enum class Opcode : std::uint8_t
{
    ReadRequest,
    ReadResponse,
    WriteRequest,
    Send,
    Ack,
    Nak,     ///< NAK with a syndrome in Packet::nak
    RnrNak,  ///< Receiver-Not-Ready NAK carrying the RNR timer value
    AtomicRequest,   ///< FETCH_ADD / CMP_SWAP request (ATOMICETH)
    AtomicResponse,  ///< 8-byte original value (ATOMICACKETH)
    CmRearm,         ///< CM-style re-arm request (QP recovery handshake)
    CmRearmAck,      ///< CM-style re-arm reply
};

/** NAK syndromes (IBA AETH codes we model). */
enum class NakCode : std::uint8_t
{
    None,
    PsnSequenceError,   ///< out-of-sequence request PSN at the responder
    RemoteAccessError,  ///< rkey/bounds violation
};

const char* opcodeName(Opcode op);
const char* nakName(NakCode code);

/**
 * A transport packet in flight.
 */
struct Packet
{
    Opcode op = Opcode::Send;

    /** @{ Fabric addressing. */
    std::uint16_t srcLid = 0;
    std::uint16_t dstLid = 0;
    /** @} */

    /** @{ Transport addressing: queue pair numbers. */
    std::uint32_t srcQpn = 0;
    std::uint32_t dstQpn = 0;
    /** @} */

    /** Packet sequence number (request stream or response stream). */
    std::uint32_t psn = 0;

    /** @{ RETH fields for RDMA requests. */
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    /** @} */

    /** DMA length of the operation (request) or payload size (response). */
    std::uint32_t length = 0;

    /** @{ Segmentation (first/middle/last packets of one message). */
    std::uint32_t segIndex = 0;
    std::uint32_t segCount = 1;
    /** @} */

    /** Payload bytes for data-carrying packets (responses, SEND, WRITE). */
    std::vector<std::uint8_t> payload;

    /** Syndrome for Opcode::Nak. */
    NakCode nak = NakCode::None;

    /** RNR timer value carried by an RNR NAK. */
    Time rnrDelay;

    /** @{ ATOMICETH fields. */
    bool atomicIsCompSwap = false;  ///< false = FETCH_ADD
    std::uint64_t atomicOperand = 0;  ///< add value / swap value
    std::uint64_t atomicCompare = 0;  ///< compare value (CMP_SWAP)
    /** @} */

    /**
     * ConnectX-4 damming-quirk marker (see DESIGN.md #4): set by the
     * requester on requests first transmitted inside another request's
     * pending window; a quirky responder drops such requests. Cleared when
     * the requester retransmits due to a transport timeout or a
     * PSN-sequence-error NAK. This models a hardware-internal state bit,
     * not a wire field.
     */
    bool dammed = false;

    /** True for any retransmission (capture/analysis convenience). */
    bool retransmission = false;

    /**
     * True for a response the responder re-served for a duplicate request
     * (re-served READ data, re-ACKs, atomic replay-cache answers). The
     * invariant oracle's serialization checks judge fresh executions
     * only, so replays must be distinguishable from first responses.
     * Like `dammed`, this models engine-internal ground truth, not a
     * wire field.
     */
    bool replayed = false;

    /**
     * @{ Chaos fault-injection provenance (src/chaos/). The injector marks
     * packets it duplicated, corrupted or forged so that the invariant
     * oracle can tell endpoint behaviour apart from injected wire noise,
     * and so the receiving RNIC can model the ICRC check: a corrupted
     * packet without the crc-evading bit is dropped at ingress, exactly
     * like a real HCA discarding a packet that fails its end-to-end CRC.
     * These model injector-side ground truth, not wire fields.
     */
    static constexpr std::uint8_t chaosDuplicated = 1u << 0;
    static constexpr std::uint8_t chaosCorrupted = 1u << 1;
    static constexpr std::uint8_t chaosForged = 1u << 2;
    static constexpr std::uint8_t chaosCrcEvading = 1u << 3;
    std::uint8_t chaosFlags = 0;
    /** @} */

    /**
     * True when the sending QP has been rerouted by the simulated subnet
     * manager around a down link: the fabric lets such packets pass the
     * link-down egress gate and charges one extra hop of latency for the
     * detour. Models path state, not a wire field.
     */
    bool rerouted = false;

    /**
     * Reset epoch of the sending QP. Incremented each time a QP goes
     * through the reset->init->RTS recovery path; receivers discard
     * packets whose epoch does not match their own so stale pre-reset
     * traffic cannot corrupt the re-armed PSN streams. Always 0 for QPs
     * that never entered recovery, so legacy runs are unaffected.
     */
    std::uint16_t epoch = 0;

    /** Monotonic id assigned by the fabric when first sent. */
    std::uint64_t wireId = 0;

    /** Time the packet was handed to the fabric. */
    Time sentAt;

    /** Wire size in bytes: payload/DMA length plus header overhead. */
    std::uint32_t wireSize() const;

    /** One-line rendering for traces. */
    std::string str() const;

    /**
     * Process-wide count of str() invocations. str() is the expensive
     * per-packet formatter, and it must never run on a trace-disabled
     * hot path; the datapath tests assert this counter stays flat across
     * such runs.
     */
    static std::uint64_t strCalls();
};

} // namespace net
} // namespace ibsim

#endif // IBSIM_NET_PACKET_HH
