/**
 * @file
 * The queue pair handle — the application-facing verbs endpoint.
 *
 * QueuePair is a thin, copyable handle over the RNIC's per-QP context. It
 * exposes the post verbs of the paper's micro-benchmark
 * (post_rdma_read & friends, Fig. 3) plus connection setup, including the
 * deliberately-wrong-LID connection used to measure transport timeouts
 * (Sec. IV-B).
 */

#ifndef IBSIM_VERBS_QUEUE_PAIR_HH
#define IBSIM_VERBS_QUEUE_PAIR_HH

#include <cstdint>

#include "rnic/qp_context.hh"
#include "verbs/types.hh"

namespace ibsim {

namespace rnic {
class Rnic;
} // namespace rnic

namespace verbs {

/**
 * Handle to one RC queue pair.
 */
class QueuePair
{
  public:
    QueuePair() : rnic_(nullptr), ctx_(nullptr) {}
    QueuePair(rnic::Rnic& rnic, rnic::QpContext& ctx)
        : rnic_(&rnic), ctx_(&ctx)
    {}

    bool valid() const { return ctx_ != nullptr; }
    std::uint32_t qpn() const { return ctx_->qpn; }
    const QpConfig& config() const { return ctx_->config; }

    /** Point this QP at a remote (lid, qpn) endpoint and move to RTS. */
    void connect(std::uint16_t dst_lid, std::uint32_t dst_qpn);

    /** Post a one-sided RDMA READ: remote [raddr] -> local [laddr]. */
    void postRead(std::uint64_t laddr, std::uint32_t lkey,
                  std::uint64_t raddr, std::uint32_t rkey,
                  std::uint32_t length, std::uint64_t wr_id);

    /** Post a one-sided RDMA WRITE: local [laddr] -> remote [raddr]. */
    void postWrite(std::uint64_t laddr, std::uint32_t lkey,
                   std::uint64_t raddr, std::uint32_t rkey,
                   std::uint32_t length, std::uint64_t wr_id);

    /** Post a two-sided SEND of local [laddr, laddr+length). */
    void postSend(std::uint64_t laddr, std::uint32_t lkey,
                  std::uint32_t length, std::uint64_t wr_id);

    /** Post a datagram SEND to @p ah (UD QPs only). */
    void postSendUd(const AddressHandle& ah, std::uint64_t laddr,
                    std::uint32_t lkey, std::uint32_t length,
                    std::uint64_t wr_id);

    /** Post a RECV WQE accepting up to @p length bytes at @p addr. */
    void postRecv(std::uint64_t addr, std::uint32_t lkey,
                  std::uint32_t length, std::uint64_t wr_id);

    /**
     * Post a 64-bit atomic fetch-and-add on remote [raddr]; the original
     * value lands at local [laddr].
     */
    void postFetchAdd(std::uint64_t laddr, std::uint32_t lkey,
                      std::uint64_t raddr, std::uint32_t rkey,
                      std::uint64_t add, std::uint64_t wr_id);

    /**
     * Post a 64-bit atomic compare-and-swap on remote [raddr]: if the
     * remote value equals @p compare it becomes @p swap; the original
     * value lands at local [laddr].
     */
    void postCompSwap(std::uint64_t laddr, std::uint32_t lkey,
                      std::uint64_t raddr, std::uint32_t rkey,
                      std::uint64_t compare, std::uint64_t swap,
                      std::uint64_t wr_id);

    /** Requester work still in flight. */
    std::size_t outstanding() const { return ctx_->outstanding.size(); }

    const rnic::QpStats& stats() const { return ctx_->stats; }

    rnic::QpContext& context() { return *ctx_; }

  private:
    /** Fill one send WQE and hand it to the RNIC (every post verb). */
    void post(WrOpcode op, std::uint64_t laddr, std::uint32_t lkey,
              std::uint64_t raddr, std::uint32_t rkey, std::uint32_t length,
              std::uint64_t wr_id, std::uint64_t operand = 0,
              std::uint64_t compare = 0);

    rnic::Rnic* rnic_;
    rnic::QpContext* ctx_;
};

} // namespace verbs
} // namespace ibsim

#endif // IBSIM_VERBS_QUEUE_PAIR_HH
