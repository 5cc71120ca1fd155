/**
 * @file
 * ucxlite — a UCX-like tag-matching messaging layer over the verbs API.
 *
 * The paper's pitfalls were first hit through UCX (Sec. IX-A: "UCX
 * prioritized ODP over direct memory registration by default, and we were
 * even unaware of the use of ODP"). This module models the relevant slice
 * of such middleware so the pitfalls can be reproduced the way
 * applications actually meet them:
 *
 *  - tag-matched nonblocking send/recv;
 *  - an *eager* protocol for small messages (payload rides the control
 *    SEND);
 *  - a *rendezvous* protocol for large messages: the sender advertises
 *    its buffer (RTS), the receiver pulls it with an RDMA READ and then
 *    confirms with a FIN SEND — the READ-followed-by-SEND shape that
 *    packet damming punishes;
 *  - a memory domain that either registers user buffers on demand
 *    (implicit ODP — the UCX default the paper warns about) or through a
 *    pin-down registration cache (the conventional path).
 *
 * The layer is deliberately small but complete enough that MiniDsm-style
 * protocols and the damming/flood experiments can run unchanged on top.
 */

#ifndef IBSIM_UCXLITE_UCX_LITE_HH
#define IBSIM_UCXLITE_UCX_LITE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "regcache/registration_cache.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace ucxlite {

/** Worker configuration. */
struct UcxConfig
{
    /**
     * Register user buffers via implicit ODP (the UCX default the paper
     * calls out) instead of the pin-down registration cache.
     */
    bool useOdp = true;

    /** Transport attributes (UCX defaults per paper Sec. VII). */
    verbs::QpConfig qpConfig = ucxDefaults();

    static verbs::QpConfig
    ucxDefaults()
    {
        verbs::QpConfig config;
        config.cack = 18;
        config.cretry = 7;
        config.minRnrNakDelay = Time::ms(0.96);
        return config;
    }
};

/** A remote memory descriptor for one-sided RMA (ucp_rkey analogue). */
struct RemoteMemory
{
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t len = 0;
};

/** Worker statistics. */
struct UcxStats
{
    std::uint64_t eagerSends = 0;
    std::uint64_t rendezvousSends = 0;
    std::uint64_t unexpectedMessages = 0;
    std::uint64_t rendezvousReads = 0;
};

class UcxWorker;

/**
 * A connection from one worker to a peer. Obtained via
 * UcxWorker::connectTo(); sends are issued on endpoints, receives are
 * posted on the worker (any-source tag matching, as in UCX).
 */
class UcxEndpoint
{
  public:
    /**
     * Nonblocking tagged send of [addr, addr+len) on the local node.
     * @return a request id; poll UcxWorker::completed().
     */
    std::uint64_t tagSend(std::uint64_t tag, std::uint64_t addr,
                          std::uint32_t len);

    /**
     * One-sided RMA get: pull [rmem.addr, +len) into local [laddr, +len).
     * No control traffic follows -- the ArgoDSM-style direct READ.
     * @return a request id; poll UcxWorker::completed().
     */
    std::uint64_t get(std::uint64_t laddr, const RemoteMemory& rmem,
                      std::uint32_t len);

    /** One-sided RMA put: push local [laddr, +len) to the remote. */
    std::uint64_t put(std::uint64_t laddr, const RemoteMemory& rmem,
                      std::uint32_t len);

    /** The QP carrying this endpoint's traffic (for stats/tests). */
    verbs::QueuePair& qp() { return qp_; }

  private:
    friend class UcxWorker;
    UcxWorker* owner_ = nullptr;
    UcxWorker* peer_ = nullptr;
    verbs::QueuePair qp_;       ///< local -> peer control + data
    std::size_t index_ = 0;     ///< endpoint slot in the owner
};

/**
 * A communication worker bound to one node.
 */
class UcxWorker
{
  public:
    UcxWorker(Cluster& cluster, Node& node, UcxConfig config = {});
    ~UcxWorker();

    UcxWorker(const UcxWorker&) = delete;
    UcxWorker& operator=(const UcxWorker&) = delete;

    /** Connect to a peer worker (creates both directions). */
    UcxEndpoint& connectTo(UcxWorker& peer);

    /**
     * Nonblocking tagged receive into [addr, addr+maxlen). Matches
     * eager and rendezvous arrivals from any connected peer.
     * @return a request id; poll completed().
     */
    std::uint64_t tagRecv(std::uint64_t tag, std::uint64_t addr,
                          std::uint32_t maxlen);

    /**
     * Expose a local range for one-sided access by peers (registers it
     * through the memory domain and returns the descriptor to share).
     */
    RemoteMemory expose(std::uint64_t addr, std::uint32_t len);

    /** Whether a request (send or recv) has completed. */
    bool completed(std::uint64_t request) const;

    /** Bytes delivered for a completed receive request. */
    std::uint32_t receivedBytes(std::uint64_t request) const;

    Node& node() { return node_; }
    const UcxStats& stats() const { return stats_; }
    const UcxConfig& config() const { return config_; }

  private:
    friend class UcxEndpoint;

    struct PostedRecv
    {
        std::uint64_t request = 0;
        std::uint64_t tag = 0;
        std::uint64_t addr = 0;
        std::uint32_t maxlen = 0;
        std::uint32_t lkey = 0;  ///< pre-acquired landing-buffer key
    };

    struct RecvSlot
    {
        verbs::QueuePair qp;
        std::uint64_t addr = 0;
        std::uint32_t lkey = 0;
    };

    struct UnexpectedMessage
    {
        std::uint64_t tag = 0;
        bool rendezvous = false;
        std::vector<std::uint8_t> payload;  ///< eager data
        // Rendezvous descriptor:
        std::uint64_t raddr = 0;
        std::uint32_t rkey = 0;
        std::uint32_t len = 0;
        std::uint64_t senderRequest = 0;
        UcxEndpoint* replyEp = nullptr;
    };

    /** @{ Control message types. */
    static constexpr std::uint8_t msgEager = 1;
    static constexpr std::uint8_t msgRts = 2;
    static constexpr std::uint8_t msgFin = 3;
    /** @} */

    /** Create a one-way endpoint toward @p peer. */
    UcxEndpoint& makeEndpoint(UcxWorker& peer);

    /** Post control RECV slots on an inbound QP. */
    void armInbound(verbs::QueuePair inbound);

    /** Look up (or create) the memory handle covering a user range. */
    verbs::MemoryRegion& domainMr(std::uint64_t addr, std::uint32_t len);

    /** Deliver a matched arrival into a posted receive. */
    void deliver(const PostedRecv& recv, const UnexpectedMessage& msg);

    /** Send one control message (header + optional payload) on @p ep. */
    void sendCtrl(UcxEndpoint& ep, std::uint8_t type, std::uint64_t tag,
                  std::uint64_t a, std::uint64_t b, std::uint32_t len,
                  const std::uint8_t* payload, std::uint32_t payload_len);

    /** RQ completion: dispatch an inbound control message. */
    void onCtrlArrival(const verbs::WorkCompletion& wc);

    /** Completion of a rendezvous READ posted by this worker. */
    void onReadCompletion(const verbs::WorkCompletion& wc);

    /** Try to match an arrival against posted receives. */
    void matchOrQueue(UnexpectedMessage&& msg);

    /** Start the rendezvous pull for a matched descriptor. */
    void startRendezvous(const PostedRecv& recv,
                         const UnexpectedMessage& rts);

    Cluster& cluster_;
    Node& node_;
    UcxConfig config_;

    verbs::CompletionQueue* cq_ = nullptr;
    std::vector<std::unique_ptr<UcxEndpoint>> endpoints_;
    /** Reverse map: inbound qpn -> endpoint used for replies. */
    std::map<std::uint32_t, UcxEndpoint*> byRemoteQpn_;

    /** Control buffers (pinned). */
    std::uint64_t ctrlSendBuf_ = 0;
    verbs::MemoryRegion* ctrlSendMr_ = nullptr;
    std::map<std::uint64_t, RecvSlot> recvSlots_;
    std::uint64_t nextRecvSlot_ = 1;
    std::uint64_t ctrlSendSeq_ = 1;

    /** Outstanding user sends: request -> length. */
    std::map<std::uint64_t, std::uint32_t> eagerSendLens_;
    std::map<std::uint64_t, std::uint32_t> rendezvousSendLens_;
    /** Outstanding one-sided RMA requests: request -> length. */
    std::map<std::uint64_t, std::uint32_t> rmaLens_;

    /** Memory domain. */
    verbs::MemoryRegion* implicitMr_ = nullptr;
    std::unique_ptr<regcache::RegistrationCache> regCache_;

    std::uint64_t nextRequest_ = 1;
    std::map<std::uint64_t, std::uint32_t> completedRequests_;
    std::deque<PostedRecv> postedRecvs_;
    std::deque<UnexpectedMessage> unexpected_;
    /** READ wr_id -> (recv request, fin target, sender request, len). */
    struct PendingRead
    {
        std::uint64_t recvRequest = 0;
        UcxEndpoint* replyEp = nullptr;
        std::uint64_t senderRequest = 0;
        std::uint32_t len = 0;
    };
    std::map<std::uint64_t, PendingRead> pendingReads_;

    UcxStats stats_;
};

} // namespace ucxlite
} // namespace ibsim

#endif // IBSIM_UCXLITE_UCX_LITE_HH
