#include "verbs/queue_pair.hh"

#include <cassert>

#include "rnic/rnic.hh"

namespace ibsim {
namespace verbs {

void
QueuePair::connect(std::uint16_t dst_lid, std::uint32_t dst_qpn)
{
    rnic_->connectQp(*ctx_, dst_lid, dst_qpn);
}

void
QueuePair::post(WrOpcode op, std::uint64_t laddr, std::uint32_t lkey,
                std::uint64_t raddr, std::uint32_t rkey,
                std::uint32_t length, std::uint64_t wr_id,
                std::uint64_t operand, std::uint64_t compare)
{
    assert(length > 0);
    rnic::SendWqe wqe;
    wqe.wrId = wr_id;
    wqe.op = op;
    wqe.laddr = laddr;
    wqe.lkey = lkey;
    wqe.raddr = raddr;
    wqe.rkey = rkey;
    wqe.length = length;
    wqe.atomicOperand = operand;
    wqe.atomicCompare = compare;
    rnic_->postSend(*ctx_, wqe);
}

void
QueuePair::postRead(std::uint64_t laddr, std::uint32_t lkey,
                    std::uint64_t raddr, std::uint32_t rkey,
                    std::uint32_t length, std::uint64_t wr_id)
{
    post(WrOpcode::Read, laddr, lkey, raddr, rkey, length, wr_id);
}

void
QueuePair::postWrite(std::uint64_t laddr, std::uint32_t lkey,
                     std::uint64_t raddr, std::uint32_t rkey,
                     std::uint32_t length, std::uint64_t wr_id)
{
    post(WrOpcode::Write, laddr, lkey, raddr, rkey, length, wr_id);
}

void
QueuePair::postSend(std::uint64_t laddr, std::uint32_t lkey,
                    std::uint32_t length, std::uint64_t wr_id)
{
    post(WrOpcode::Send, laddr, lkey, 0, 0, length, wr_id);
}

void
QueuePair::postSendUd(const AddressHandle& ah, std::uint64_t laddr,
                      std::uint32_t lkey, std::uint32_t length,
                      std::uint64_t wr_id)
{
    assert(ctx_->config.transport == Transport::Ud);
    // Stash the address handle in the remote fields.
    post(WrOpcode::Send, laddr, lkey,
         (static_cast<std::uint64_t>(ah.lid) << 32) | ah.qpn, 0, length,
         wr_id);
}

void
QueuePair::postFetchAdd(std::uint64_t laddr, std::uint32_t lkey,
                        std::uint64_t raddr, std::uint32_t rkey,
                        std::uint64_t add, std::uint64_t wr_id)
{
    post(WrOpcode::FetchAdd, laddr, lkey, raddr, rkey, 8, wr_id, add);
}

void
QueuePair::postCompSwap(std::uint64_t laddr, std::uint32_t lkey,
                        std::uint64_t raddr, std::uint32_t rkey,
                        std::uint64_t compare, std::uint64_t swap,
                        std::uint64_t wr_id)
{
    post(WrOpcode::CompSwap, laddr, lkey, raddr, rkey, 8, wr_id, swap,
         compare);
}

void
QueuePair::postRecv(std::uint64_t addr, std::uint32_t lkey,
                    std::uint32_t length, std::uint64_t wr_id)
{
    rnic::RecvWqe wqe;
    wqe.wrId = wr_id;
    wqe.addr = addr;
    wqe.length = length;
    wqe.lkey = lkey;
    rnic_->postRecv(*ctx_, wqe);
}

} // namespace verbs
} // namespace ibsim
