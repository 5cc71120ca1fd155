/**
 * @file
 * Datagram RPC over the UD transport — the HERD / FaSST design point
 * (paper Sec. VIII-C, refs [8], [10]).
 *
 * Kalia et al. built remote procedure calls over InfiniBand's Unreliable
 * Datagram transport, detecting (practically nonexistent) packet loss
 * with coarse-grained software timeouts instead of the RC machinery —
 * sidestepping both the vendor-floored transport timeout and, on ODP
 * hardware, the pitfalls this paper studies. This module implements that
 * design: an RpcServer dispatching requests to a handler, and an
 * RpcClient with per-call retry timers.
 *
 * Wire format: [seq:8][payload...] both ways.
 */

#ifndef IBSIM_RPC_RPC_HH
#define IBSIM_RPC_RPC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.hh"
#include "simcore/time.hh"
#include "verbs/queue_pair.hh"

namespace ibsim {
namespace rpc {

/** Client policy. */
struct RpcClientConfig
{
    /** Coarse software timeout per call attempt. */
    Time retryTimeout = Time::ms(2);

    /** Attempts before a call is reported failed. */
    std::size_t maxRetries = 5;
};

/** Client statistics. */
struct RpcClientStats
{
    std::uint64_t calls = 0;
    std::uint64_t retries = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
};

/**
 * An RPC server: one UD QP, a handler, RECV slots kept posted.
 */
class RpcServer
{
  public:
    /** Handler: request payload in, response payload out. */
    using Handler =
        std::function<std::vector<std::uint8_t>(
            const std::vector<std::uint8_t>&)>;

    RpcServer(Cluster& cluster, Node& node, Handler handler,
              std::size_t recv_slots = 64,
              std::uint32_t max_payload = 1000);

    RpcServer(const RpcServer&) = delete;
    RpcServer& operator=(const RpcServer&) = delete;

    /** The address clients dial. */
    verbs::AddressHandle address() const;

    std::uint64_t requestsServed() const { return served_; }

  private:
    void onArrival(const verbs::WorkCompletion& wc);

    Cluster& cluster_;
    Node& node_;
    Handler handler_;
    std::uint32_t maxPayload_;
    std::uint64_t slotBytes_;
    verbs::CompletionQueue* cq_ = nullptr;
    verbs::QueuePair qp_;
    std::uint64_t recvBuf_ = 0;
    std::uint64_t sendBuf_ = 0;
    verbs::MemoryRegion* recvMr_ = nullptr;
    verbs::MemoryRegion* sendMr_ = nullptr;
    std::size_t sendSlot_ = 0;
    std::size_t sendSlots_ = 0;
    std::uint64_t served_ = 0;
};

/**
 * An RPC client: one UD QP, per-call retry timers.
 */
class RpcClient
{
  public:
    RpcClient(Cluster& cluster, Node& node, verbs::AddressHandle server,
              RpcClientConfig config = {});

    RpcClient(const RpcClient&) = delete;
    RpcClient& operator=(const RpcClient&) = delete;

    /** Issue a call; returns the call id. */
    std::uint64_t call(const std::vector<std::uint8_t>& payload);

    /** Whether the call has a response (or failed). */
    bool completed(std::uint64_t id) const;

    /** Whether the call exhausted its retries. */
    bool failed(std::uint64_t id) const;

    /** The response payload of a completed call. */
    const std::vector<std::uint8_t>& response(std::uint64_t id) const;

    const RpcClientStats& stats() const { return stats_; }

  private:
    struct PendingCall
    {
        std::vector<std::uint8_t> payload;
        std::size_t attempts = 0;
        EventHandle timer;
    };

    void transmit(std::uint64_t id);
    void retryFired(std::uint64_t id);
    void onArrival(const verbs::WorkCompletion& wc);

    Cluster& cluster_;
    Node& node_;
    verbs::AddressHandle server_;
    RpcClientConfig config_;
    verbs::CompletionQueue* cq_ = nullptr;
    verbs::QueuePair qp_;
    std::uint64_t recvBuf_ = 0;
    std::uint64_t sendBuf_ = 0;
    verbs::MemoryRegion* recvMr_ = nullptr;
    verbs::MemoryRegion* sendMr_ = nullptr;
    std::size_t sendSlot_ = 0;

    std::uint64_t nextCall_ = 1;
    std::map<std::uint64_t, PendingCall> pending_;
    std::map<std::uint64_t, std::vector<std::uint8_t>> responses_;
    std::map<std::uint64_t, bool> failedCalls_;
    RpcClientStats stats_;
};

} // namespace rpc
} // namespace ibsim

#endif // IBSIM_RPC_RPC_HH
