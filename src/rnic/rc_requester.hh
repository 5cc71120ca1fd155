/**
 * @file
 * The Reliable Connection requester engine.
 *
 * One RcRequester drives the send side of one QP: PSN assignment, first
 * transmission (including sender-side ODP faults for SEND/WRITE payloads),
 * the Local ACK Timeout with Retry Count semantics, RNR NAK waits,
 * PSN-sequence-error go-back-N recovery, client-side ODP blind
 * retransmission, and the damming pending-window bookkeeping. This is where
 * most of the paper's reverse-engineered behaviour lives; see DESIGN.md
 * section 4 for the mapping from observations to mechanisms.
 */

#ifndef IBSIM_RNIC_RC_REQUESTER_HH
#define IBSIM_RNIC_RC_REQUESTER_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "rnic/qp_context.hh"
#include "verbs/memory_region.hh"
#include "verbs/types.hh"

namespace ibsim {
namespace rnic {

class Rnic;

/**
 * Send-side protocol engine of one RC QP.
 */
class RcRequester
{
  public:
    RcRequester(Rnic& rnic, QpContext& qp);

    /** Post a new work request (assigns the PSN, attempts transmission). */
    void post(SendWqe wqe);

    /** @{ Packet handlers (dispatched by Rnic::receive). */
    void onAck(const net::Packet& pkt);
    void onNak(const net::Packet& pkt);
    void onRnrNak(const net::Packet& pkt);
    void onReadResponse(const net::Packet& pkt);
    /** @} */

    /**
     * Move the QP to error state: the head WR completes with @p status,
     * every other outstanding WR with WrFlushErr.
     */
    void flushAll(verbs::WcStatus status);

    /**
     * Refuse a WR at post time: the WRs ahead of it flush, it completes
     * with @p status and the QP moves to error state.
     */
    void failPost(const SendWqe& wqe, verbs::WcStatus status);

    /**
     * Recovery re-arm finished (QP back to RTS): restart the send engine
     * for any WRs queued while the CM handshake was in flight.
     */
    void resume();

  private:
    /**
     * @{ The send engine is paused (pending retransmission) while the
     * RNR wait or client-side fault gap timer is pending. New posts
     * queue meanwhile and go out with the next retransmission burst, as
     * in the paper's Fig. 5 captures.
     */
    bool inRnrWait() const;
    bool paused() const;
    /** @} */

    /** Transmit (or retransmit) one WQE's request packet. */
    void transmit(SendWqe& wqe);

    /** flushAll, with the WR at @p psn carrying @p status. */
    void failWqe(std::uint32_t psn, verbs::WcStatus status);

    /**
     * Raise sender-side faults for every unmapped source page of
     * @p wqe in its source region @p mr; the WQE stays
     * blockedOnLocalFault until the batch fans in.
     */
    void raiseLocalFaults(SendWqe& wqe, verbs::MemoryRegion& mr);

    /**
     * A sender-side fault batch fanned in for the WQE at @p psn. The
     * source range is re-checked first: an invalidation that flushed
     * pages while the batch resolved (the notifier quiesce window)
     * re-raises faults instead of transmitting stale translations, and
     * a source MR deregistered meanwhile fails the WQE with LocProtErr.
     */
    void onLocalFaultsResolved(std::uint32_t psn);

    /**
     * Slide the pipelining window: put requests on the wire, in PSN
     * order, until maxInflight are outstanding past the head.
     */
    void pump();

    /**
     * Go-back-N: rewind the send cursor to @p psn (not before the head)
     * so pump() replays from there; optionally clear dammed marks.
     */
    void rewind(std::uint32_t psn, bool clear_dammed);

    /** @{ Local ACK Timeout machinery. */
    void armTimer();
    void timeoutFired();
    /** @} */

    /** @{ RNR wait machinery. */
    void enterRnrWait(Time responder_min_delay);
    void rnrWaitFired();
    /** @} */

    /** @{ Client-side ODP blind retransmission. */
    void scheduleClientRexmit();
    void clientRexmitFired();
    /** @} */

    /**
     * Check the local pages of a READ destination in its region @p mr.
     * Returns true when all pages are mapped and this QP's status view
     * is fresh; otherwise raises faults, registers waiters and returns
     * false.
     */
    bool readDestinationReady(const SendWqe& wqe, verbs::MemoryRegion& mr);

    /** Complete the head WQE successfully. */
    void completeHead();

    /** Progress was made: reset retry state and re-arm the timer. */
    void progressMade();

    /**
     * Pooled fan-in counters for multi-page sender-side fault batches.
     * Each batch used to allocate a std::make_shared<int>; here the fault
     * callbacks capture a slot index into this free-list pool, and the
     * slot is recycled when the last page of the batch resolves. A slot
     * is never released while its callbacks are still in flight.
     */
    struct CounterPool
    {
        std::uint32_t
        acquire()
        {
            if (!free.empty()) {
                const std::uint32_t idx = free.back();
                free.pop_back();
                counters[idx] = 0;
                return idx;
            }
            counters.push_back(0);
            return static_cast<std::uint32_t>(counters.size() - 1);
        }

        void release(std::uint32_t idx) { free.push_back(idx); }

        int& at(std::uint32_t idx) { return counters[idx]; }

        std::vector<int> counters;
        std::vector<std::uint32_t> free;
    };

    Rnic& rnic_;
    QpContext& qp_;
    CounterPool faultCounters_;
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_RC_REQUESTER_HH
