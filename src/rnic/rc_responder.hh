/**
 * @file
 * The Reliable Connection responder engine.
 *
 * One RcResponder serves the receive side of one QP: expected-PSN tracking,
 * duplicate handling, PSN-sequence-error NAKs, RNR NAKs for server-side ODP
 * faults (and missing RECV WQEs), proactive response transmission when a
 * fault resolves (whose replies the waiting requester discards — Fig. 1),
 * and the responder half of the damming quirk.
 */

#ifndef IBSIM_RNIC_RC_RESPONDER_HH
#define IBSIM_RNIC_RC_RESPONDER_HH

#include <optional>

#include "net/packet.hh"
#include "rnic/flat_table.hh"
#include "rnic/qp_context.hh"

namespace ibsim {
namespace rnic {

class Rnic;

/**
 * Receive-side protocol engine of one RC QP.
 */
class RcResponder
{
  public:
    RcResponder(Rnic& rnic, QpContext& qp);

    /** Handle an inbound request (READ/WRITE/SEND/ATOMIC). */
    void onRequest(const net::Packet& pkt);

    /**
     * Transport reset (Rnic::resetQp): discard responder-side state from
     * the old reset epoch — the parked proactive request, the
     * one-NAK-per-occurrence latch and the atomic replay cache all refer
     * to the pre-reset PSN stream.
     */
    void resetForRecovery();

  private:
    /** Unreliable Connection service: no acks, no NAKs, losses silent. */
    void onUcRequest(const net::Packet& pkt);

    /** Unreliable Datagram service: unconnected SENDs. */
    void onUdRequest(const net::Packet& pkt);

    /**
     * Land a UC or UD SEND in the head RECV and complete it; false when
     * it is dropped instead (no RECV, truncation, ODP-cold or
     * deregistered buffer). A @p datagram completion names its sender.
     */
    bool landUnreliableSend(const net::Packet& pkt, bool datagram);

    /**
     * The head RECV's region was deregistered after the post: it
     * completes with LocProtErr, then the QP moves to Error and every
     * other WR flushes.
     */
    void failHeadRecv();

    /**
     * Execute the request at expectedPsn; when it runs, advance the
     * expected PSN past it (a READ past its whole response range).
     */
    void executeInSequence(const net::Packet& pkt);

    /**
     * Try to execute a request. Returns false when execution must wait
     * (server-side fault raised, RNR NAK sent).
     *
     * @param duplicate true when re-serving an already-executed request.
     */
    bool execute(const net::Packet& pkt, bool duplicate);

    /**
     * Check remote-access pages; on unmapped pages send an RNR NAK, raise
     * faults, and (for in-sequence requests) arrange the proactive
     * response. Returns true when all pages are mapped.
     */
    bool pagesReady(const net::Packet& pkt, bool arrange_proactive);

    /** @p replayed marks responses re-serving a duplicate request. */
    void sendReadResponse(const net::Packet& req, bool replayed = false);
    void sendAck(std::uint32_t psn, bool replayed = false);
    void sendSeqNak();
    void sendAccessNak(std::uint32_t psn);
    void sendRnrNak(std::uint32_t psn);

    /** Fault-resolution callback: execute the parked request. */
    void proactiveResolve();

    Rnic& rnic_;
    QpContext& qp_;

    /** In-sequence request parked on a server-side fault. */
    std::optional<net::Packet> parked_;
    /** Unresolved pages of the parked request. */
    int parkedPagesLeft_ = 0;

    /** One PSN-sequence NAK per occurrence (IBA behaviour). */
    bool seqNakSent_ = false;

    /**
     * Atomic replay cache: atomics are not idempotent, so duplicates are
     * answered from these records instead of re-executing (the IBA
     * atomic response resources). Bounded FIFO of recent results; the
     * depth comes from DeviceProfile::atomicReplayDepth. atomicCache_
     * holds one entry per cached PSN and atomicCacheOrder_ holds each of
     * those PSNs exactly once in insertion order — cacheAtomicResult()
     * maintains that correspondence so eviction retires map and ring
     * coherently.
     */
    FlatKeyMap<std::uint64_t> atomicCache_;
    Ring<std::uint32_t> atomicCacheOrder_;

    /** Run an atomic against host memory; returns the original value. */
    std::uint64_t applyAtomic(const net::Packet& pkt);

    /** Record an atomic result for duplicate replay (bounded FIFO). */
    void cacheAtomicResult(std::uint32_t psn, std::uint64_t old_value);

    void sendAtomicResponse(std::uint32_t psn, std::uint64_t old_value,
                            bool replayed = false);
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_RC_RESPONDER_HH
