/**
 * @file
 * The simulated RDMA NIC.
 *
 * One Rnic terminates one fabric port (one LID), owns the node's queue
 * pairs and the memory-key registry, and dispatches packets between the
 * fabric and the per-QP Reliable Connection engines (RcRequester /
 * RcResponder). Its behaviour is parameterized by a DeviceProfile, which is
 * where the paper's per-silicon quirks live.
 */

#ifndef IBSIM_RNIC_RNIC_HH
#define IBSIM_RNIC_RNIC_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/address_space.hh"
#include "net/fabric.hh"
#include "odp/odp_driver.hh"
#include "odp/page_status_board.hh"
#include "rnic/device_profile.hh"
#include "rnic/flat_table.hh"
#include "rnic/qp_context.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/tap_list.hh"
#include "verbs/completion_queue.hh"
#include "verbs/memory_region.hh"

namespace ibsim {
namespace rnic {

class RcRequester;
class RcResponder;

/** Device-level counters. */
struct RnicStats
{
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsReceived = 0;
    std::uint64_t packetsToUnknownQp = 0;

    /** Ingress packets discarded by the ICRC model (chaos corruption). */
    std::uint64_t crcDrops = 0;

    /** Ingress packets dropped as malformed (graceful degradation). */
    std::uint64_t malformedDrops = 0;

    /**
     * Pre-addressed (UD) egress datagrams whose destination LID has no
     * port attached — checked against the fabric's dense PortRecord
     * table at send time instead of vanishing silently downstream.
     */
    std::uint64_t udUnroutedDrops = 0;

    /** @{ Port-event / recovery accounting (DESIGN.md §13). */

    /** PathDown/PortDown async events delivered to this port. */
    std::uint64_t portDownEvents = 0;

    /** PathUp/PortUp async events delivered to this port. */
    std::uint64_t portUpEvents = 0;

    /** SM-style reroutes applied to this port's QPs. */
    std::uint64_t reroutes = 0;

    /** QPs that entered the Error state (retry exhaustion / CM failure). */
    std::uint64_t qpsEnteredError = 0;

    /** QPs that completed the reset->init->RTR->RTS re-arm. */
    std::uint64_t qpsRecovered = 0;

    /** Ingress packets discarded for a stale reset epoch. */
    std::uint64_t staleEpochDrops = 0;

    /** CM re-arm requests sent (first sends + handshake retries). */
    std::uint64_t cmRearmsSent = 0;

    /** @} */
};

/**
 * A simulated RNIC attached to the fabric.
 */
class Rnic : public net::PortHandler
{
  public:
    Rnic(EventQueue& events, Rng& rng, net::Fabric& fabric,
         std::uint16_t lid, DeviceProfile profile,
         mem::AddressSpace& memory, odp::OdpDriver& driver,
         odp::PageStatusBoard& board);
    ~Rnic() override;

    Rnic(const Rnic&) = delete;
    Rnic& operator=(const Rnic&) = delete;

    std::uint16_t lid() const { return lid_; }
    const DeviceProfile& profile() const { return profile_; }
    EventQueue& events() { return events_; }
    Rng& rng() { return rng_; }
    mem::AddressSpace& memory() { return memory_; }
    odp::OdpDriver& driver() { return driver_; }
    odp::PageStatusBoard& board() { return board_; }

    /** @{ Memory key registry (rkey/lkey lookup). */
    void registerMr(verbs::MemoryRegion& mr);
    void deregisterMr(std::uint32_t key);
    verbs::MemoryRegion* findMr(std::uint32_t key);
    /** @} */

    /** Create an RC QP bound to @p cq. */
    QpContext& createQp(verbs::CompletionQueue& cq, verbs::QpConfig config);

    /** Point a QP at its remote endpoint and move it to RTS. */
    void connectQp(QpContext& qp, std::uint16_t dst_lid,
                   std::uint32_t dst_qpn);

    /**
     * Destroy a QP: cancel its timers and free its slot. Packets still
     * addressed to the QPN count as packetsToUnknownQp afterwards, like
     * a real HCA dropping traffic to a destroyed QP.
     */
    void destroyQp(std::uint32_t qpn);

    QpContext* findQp(std::uint32_t qpn);

    /** @{ Work request entry points (called via verbs::QueuePair). */
    void postSend(QpContext& qp, SendWqe wqe);
    void postRecv(QpContext& qp, RecvWqe wqe);
    /** @} */

    /**
     * @{ Passive observers of the post paths (chaos invariant monitor).
     * Send taps fire on entry to postSend, before the engine assigns a
     * PSN or pushes a completion, so observers see the pre-post QP state.
     */
    using SendPostTap =
        std::function<void(const QpContext&, const SendWqe&)>;
    using RecvPostTap =
        std::function<void(const QpContext&, const RecvWqe&)>;
    TapId addSendPostTap(SendPostTap tap);
    TapId addRecvPostTap(RecvPostTap tap);
    void removeSendPostTap(TapId id);
    void removeRecvPostTap(TapId id);
    /** @} */

    /** Fabric ingress. */
    void receive(const net::Packet& pkt) override;

    /** Async port/path events from the fabric's port-event model. */
    void portEvent(const net::PortEvent& ev) override;

    /**
     * @{ ibv_async_event-style observer surface: taps fire for port/path
     * events and for QP fatal/recovered transitions.
     */
    using AsyncEventTap = std::function<void(const verbs::AsyncEvent&)>;
    void addAsyncEventTap(AsyncEventTap tap);
    /** @} */

    /**
     * A QP just entered the Error state (called by RcRequester::flushAll
     * after the flush completions are pushed). Counts the transition and
     * raises the QpFatal async event.
     */
    void noteQpError(QpContext& qp);

    /**
     * Begin the DeviceProfile-gated recovery path for an Error-state QP:
     * reset -> init (CM re-arm handshake with the peer under a new reset
     * epoch) -> RTR -> RTS. No-op unless the QP is in Error. Normally
     * triggered by a PathUp event with profile().qpRecoveryOnPortUp set;
     * public so tests and harnesses can re-arm explicitly.
     */
    void startRecovery(QpContext& qp);

    /**
     * Egress helper for the RC engines: stamps source/destination fields
     * from @p qp and hands the packet to the fabric.
     */
    void sendPacket(net::Packet pkt, QpContext& qp);

    /**
     * Egress for pre-addressed packets (UD datagrams). The destination
     * LID comes from the caller's address handle, not a connected QP, so
     * it is bounds-checked against the fabric's port table here: an
     * unrouteable datagram counts RnicStats::udUnroutedDrops (and is
     * still handed to the fabric, where capture taps see the drop).
     */
    void sendRaw(net::Packet pkt);

    /**
     * QPs with requester work in flight (drives timeout load scaling).
     * O(1): the RC requesters report idle/active transitions, so arming
     * a retransmit timer no longer scans every QP on the device.
     */
    std::size_t activeQpCount() const { return activeQps_; }

    /**
     * @{ Active-QP accounting, called by RcRequester when a QP's
     * outstanding queue transitions empty <-> non-empty.
     */
    void qpBecameActive() { ++activeQps_; }
    void
    qpBecameIdle()
    {
        assert(activeQps_ > 0);
        --activeQps_;
    }
    /** @} */

    /** All QPs on this RNIC (harness convenience). */
    std::vector<QpContext*> allQps();

    RnicStats& stats() { return stats_; }

  private:
    struct QpRecord
    {
        std::unique_ptr<QpContext> ctx;
        std::unique_ptr<RcRequester> requester;
        std::unique_ptr<RcResponder> responder;
    };

    /**
     * The record for @p qpn, or nullptr. QPNs are assigned sequentially
     * from firstQpn by this device, so the table is a dense vector
     * indexed by qpn - firstQpn — the per-packet steering lookup in
     * receive() is a bounds check plus an array indexing, like the
     * QP-state tables real RNIC steering caches resolve against.
     * Destroyed QPs leave a null slot (QPNs are not reused).
     */
    QpRecord* qpRecord(std::uint32_t qpn);

    /**
     * Sanity-check an ingress packet that passed the ICRC model. A real
     * HCA silently discards wire garbage; asserting on it would turn
     * injected corruption into a simulator crash.
     */
    bool validPacket(const net::Packet& pkt) const;

    /** @{ Error/recovery machinery (DESIGN.md §13). */
    void fireAsyncEvent(verbs::AsyncEventType type, std::uint16_t peer_lid,
                        std::uint32_t qpn, bool redundant);
    void sendCmRearm(QpContext& qp);
    void armCmTimer(QpContext& qp);
    void cmTimerFired(std::uint32_t qpn);
    void onCmRearm(QpRecord& record, const net::Packet& pkt);
    void onCmRearmAck(QpRecord& record, const net::Packet& pkt);
    void finishRecovery(QpContext& qp);
    /** @} */

    EventQueue& events_;
    Rng& rng_;
    net::Fabric& fabric_;
    std::uint16_t lid_;
    DeviceProfile profile_;
    mem::AddressSpace& memory_;
    odp::OdpDriver& driver_;
    odp::PageStatusBoard& board_;

    /** First QPN this device hands out (qps_[i] holds firstQpn + i). */
    static constexpr std::uint32_t firstQpn = 100;
    std::vector<QpRecord> qps_;

    /**
     * rkey/lkey -> region, flat open-addressing table. Keys are
     * node-assigned and sparse, so this is hashed rather than dense.
     */
    FlatKeyMap<verbs::MemoryRegion*> mrs_;

    /**
     * One-entry MRU cache in front of mrs_: DMA streams hit the same
     * region for long runs of packets (every response of a large READ,
     * every op of a flood), so most findMr() calls short-circuit to one
     * compare. Invalidated on deregistration.
     */
    std::uint32_t mruKey_ = 0;
    verbs::MemoryRegion* mruMr_ = nullptr;

    TapList<SendPostTap> sendPostTaps_;
    TapList<RecvPostTap> recvPostTaps_;
    std::vector<AsyncEventTap> asyncEventTaps_;
    std::size_t activeQps_ = 0;
    RnicStats stats_;
};

} // namespace rnic
} // namespace ibsim

#endif // IBSIM_RNIC_RNIC_HH
