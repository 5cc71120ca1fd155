/**
 * @file
 * Software reliability over the Unreliable Connection transport.
 *
 * The paper's related work (Sec. VIII-C, Koop et al. [33], Kalia et
 * al. [8]) shows that software-level reliability over unreliable
 * transports is not only feasible but can outperform hardware
 * reliability — precisely because software timeouts are tunable, while
 * the RC transport timeout is floor-limited to hundreds of milliseconds
 * (the root of packet damming's cost). This channel implements that
 * design point: application-level sequence numbers, receiver ACKs, and a
 * millisecond-scale retry timer over UC SEND/RECV.
 *
 * Wire format of each message: [type:1][seq:8][payload...].
 */

#ifndef IBSIM_SWREL_SOFT_RELIABLE_HH
#define IBSIM_SWREL_SOFT_RELIABLE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.hh"
#include "simcore/time.hh"
#include "verbs/queue_pair.hh"

namespace ibsim {
namespace swrel {

/** Channel policy. */
struct SoftChannelConfig
{
    /** Retransmit an unacked message after this long (tunable!). */
    Time retryTimeout = Time::ms(1);

    /** Give up after this many retries (message reported failed). */
    std::size_t maxRetries = 20;
};

/** Counters. */
struct SoftChannelStats
{
    std::uint64_t sends = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t delivered = 0;
    std::uint64_t duplicatesDropped = 0;
    std::uint64_t failed = 0;
};

/**
 * One reliable one-way message channel from @p sender to @p receiver,
 * built on a pair of UC QPs (data one way, ACKs the other).
 */
class SoftReliableChannel
{
  public:
    SoftReliableChannel(Cluster& cluster, Node& sender, Node& receiver,
                        SoftChannelConfig config = {});

    SoftReliableChannel(const SoftReliableChannel&) = delete;
    SoftReliableChannel& operator=(const SoftReliableChannel&) = delete;

    /**
     * Send a payload reliably. Returns the message sequence number.
     * Delivery is confirmed when acked(seq) turns true.
     */
    std::uint64_t send(const std::vector<std::uint8_t>& payload);

    /** Whether message @p seq has been acknowledged. */
    bool acked(std::uint64_t seq) const;

    /** Whether message @p seq exhausted its retries and was given up on. */
    bool failed(std::uint64_t seq) const { return failedSeqs_.count(seq) > 0; }

    /**
     * Whether every sent message has been acknowledged. A failed message
     * is NOT acked — permanent loss must not read as success.
     */
    bool allAcked() const { return pending_.empty() && failedSeqs_.empty(); }

    /** Whether every sent message has settled (acked or failed). */
    bool allSettled() const { return pending_.empty(); }

    /**
     * Notification of permanent send failure (retries exhausted), fired
     * once per failed message with its sequence number. Without it the
     * application's only signal was polling acked() — which used to lie.
     */
    void
    setFailureCallback(std::function<void(std::uint64_t seq)> cb)
    {
        failureCallback_ = std::move(cb);
    }

    /** Messages sent so far (sequence numbers run 1..sentCount()). */
    std::uint64_t sentCount() const { return nextSeq_ - 1; }

    /** Distinct sequence numbers delivered at the receiver. */
    std::size_t deliveredSeqCount() const { return deliveredSeqs_.size(); }

    /** Payloads delivered at the receiver, in delivery order. */
    const std::vector<std::vector<std::uint8_t>>&
    delivered() const
    {
        return delivered_;
    }

    const SoftChannelStats& stats() const { return stats_; }

  private:
    struct PendingMessage
    {
        std::vector<std::uint8_t> payload;
        std::size_t retries = 0;
        EventHandle retryTimer;
    };

    static constexpr std::uint8_t typeData = 1;
    static constexpr std::uint8_t typeAck = 2;

    void transmit(std::uint64_t seq);
    void armRetry(std::uint64_t seq);
    void retryFired(std::uint64_t seq);
    void onReceiverCompletion(const verbs::WorkCompletion& wc);
    void onSenderCompletion(const verbs::WorkCompletion& wc);

    Cluster& cluster_;
    Node& sender_;
    Node& receiver_;
    SoftChannelConfig config_;

    verbs::CompletionQueue* senderCq_ = nullptr;
    verbs::CompletionQueue* receiverCq_ = nullptr;
    verbs::QueuePair dataQp_;  ///< sender -> receiver (UC)
    verbs::QueuePair ackQp_;   ///< receiver -> sender (UC)
    verbs::QueuePair dataQpRemote_;
    verbs::QueuePair ackQpRemote_;

    std::uint64_t sendBuf_ = 0;
    std::uint64_t recvBuf_ = 0;
    std::uint64_t ackSendBuf_ = 0;
    std::uint64_t ackRecvBuf_ = 0;
    verbs::MemoryRegion* sendMr_ = nullptr;
    verbs::MemoryRegion* recvMr_ = nullptr;
    verbs::MemoryRegion* ackSendMr_ = nullptr;
    verbs::MemoryRegion* ackRecvMr_ = nullptr;

    std::uint64_t nextSeq_ = 1;
    std::map<std::uint64_t, PendingMessage> pending_;
    std::set<std::uint64_t> failedSeqs_;
    std::function<void(std::uint64_t)> failureCallback_;
    std::set<std::uint64_t> deliveredSeqs_;
    std::vector<std::vector<std::uint8_t>> delivered_;
    SoftChannelStats stats_;
};

} // namespace swrel
} // namespace ibsim

#endif // IBSIM_SWREL_SOFT_RELIABLE_HH
