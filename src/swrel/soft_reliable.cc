#include "swrel/soft_reliable.hh"

#include <cassert>
#include <cstring>

#include "simcore/log.hh"

namespace ibsim {
namespace swrel {

namespace {

log::Component traceSwrel("swrel");

/** Per-message buffer slot: header plus the largest payload. */
constexpr std::uint64_t slotBytes = 512;
constexpr std::uint64_t headerBytes = 9;

/** Largest payload per message. */
constexpr std::uint32_t maxPayloadBytes = 480;
static_assert(maxPayloadBytes + headerBytes <= slotBytes);

/** RECV WQEs kept posted per endpoint. */
constexpr std::size_t recvSlots = 64;

std::vector<std::uint8_t>
encode(std::uint8_t type, std::uint64_t seq,
       const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> out(headerBytes + payload.size());
    out[0] = type;
    std::memcpy(out.data() + 1, &seq, 8);
    if (!payload.empty())  // ACKs are header-only; data() may be null
        std::memcpy(out.data() + headerBytes, payload.data(),
                    payload.size());
    return out;
}

} // namespace

SoftReliableChannel::SoftReliableChannel(Cluster& cluster, Node& sender,
                                         Node& receiver,
                                         SoftChannelConfig config)
    : cluster_(cluster), sender_(sender), receiver_(receiver),
      config_(config)
{
    senderCq_ = &sender_.createCq();
    receiverCq_ = &receiver_.createCq();

    verbs::QpConfig uc;
    uc.transport = verbs::Transport::Uc;

    // Data path: sender -> receiver; ACK path: receiver -> sender.
    auto data = cluster_.connectRc(sender_, *senderCq_, receiver_,
                                   *receiverCq_, uc);
    dataQp_ = data.first;
    dataQpRemote_ = data.second;
    auto ack = cluster_.connectRc(receiver_, *receiverCq_, sender_,
                                  *senderCq_, uc);
    ackQp_ = ack.first;
    ackQpRemote_ = ack.second;

    sendBuf_ = sender_.alloc(slotBytes);
    ackRecvBuf_ = sender_.alloc(slotBytes * recvSlots);
    recvBuf_ = receiver_.alloc(slotBytes * recvSlots);
    ackSendBuf_ = receiver_.alloc(slotBytes);

    sender_.touch(sendBuf_, slotBytes);
    receiver_.touch(ackSendBuf_, slotBytes);

    sendMr_ = &sender_.registerMemory(sendBuf_, slotBytes,
                                      verbs::AccessFlags::pinned());
    ackRecvMr_ = &sender_.registerMemory(
        ackRecvBuf_, slotBytes * recvSlots,
        verbs::AccessFlags::pinned());
    recvMr_ = &receiver_.registerMemory(
        recvBuf_, slotBytes * recvSlots,
        verbs::AccessFlags::pinned());
    ackSendMr_ = &receiver_.registerMemory(ackSendBuf_, slotBytes,
                                           verbs::AccessFlags::pinned());

    for (std::size_t slot = 0; slot < recvSlots; ++slot) {
        dataQpRemote_.postRecv(recvBuf_ + slot * slotBytes,
                               recvMr_->lkey(), slotBytes, slot);
        ackQpRemote_.postRecv(ackRecvBuf_ + slot * slotBytes,
                              ackRecvMr_->lkey(), slotBytes, slot);
    }

    receiverCq_->setListener(
        [this](const verbs::WorkCompletion& wc) {
            onReceiverCompletion(wc);
        });
    senderCq_->setListener([this](const verbs::WorkCompletion& wc) {
        onSenderCompletion(wc);
    });
}

std::uint64_t
SoftReliableChannel::send(const std::vector<std::uint8_t>& payload)
{
    assert(payload.size() <= maxPayloadBytes);
    const std::uint64_t seq = nextSeq_++;
    PendingMessage msg;
    msg.payload = payload;
    pending_.emplace(seq, std::move(msg));
    ++stats_.sends;
    transmit(seq);
    armRetry(seq);
    return seq;
}

void
SoftReliableChannel::transmit(std::uint64_t seq)
{
    const auto it = pending_.find(seq);
    if (it == pending_.end())
        return;
    const auto wire = encode(typeData, seq, it->second.payload);
    sender_.memory().write(sendBuf_, wire);
    dataQp_.postSend(sendBuf_, sendMr_->lkey(),
                     static_cast<std::uint32_t>(wire.size()),
                     /*wr_id=*/seq);
}

void
SoftReliableChannel::armRetry(std::uint64_t seq)
{
    auto it = pending_.find(seq);
    if (it == pending_.end())
        return;
    it->second.retryTimer = cluster_.events().scheduleAfter(
        cluster_.rng().jitter(config_.retryTimeout, 0.05),
        [this, seq] { retryFired(seq); });
}

void
SoftReliableChannel::retryFired(std::uint64_t seq)
{
    auto it = pending_.find(seq);
    if (it == pending_.end())
        return;  // acked meanwhile
    if (++it->second.retries > config_.maxRetries) {
        // Retries exhausted: cancel the retry timer (harmless here since
        // it just fired, load-bearing if this path is ever reached from
        // anywhere else), record the failure so acked() cannot claim
        // success for a lost message, and tell the application.
        cluster_.events().cancel(it->second.retryTimer);
        failedSeqs_.insert(seq);
        ++stats_.failed;
        IBSIM_TRACE(traceSwrel, cluster_.events().now(),
                    "seq=" + std::to_string(seq) +
                        " failed after retry exhaustion");
        pending_.erase(it);
        if (failureCallback_)
            failureCallback_(seq);
        return;
    }
    ++stats_.retransmissions;
    IBSIM_TRACE(traceSwrel, cluster_.events().now(),
                "seq=" + std::to_string(seq) + " retry #" +
                    std::to_string(it->second.retries));
    transmit(seq);
    armRetry(seq);
}

void
SoftReliableChannel::onReceiverCompletion(const verbs::WorkCompletion& wc)
{
    if (wc.opcode != verbs::WrOpcode::Recv || !wc.ok())
        return;
    const std::uint64_t slot = wc.wrId;
    const std::uint64_t addr = recvBuf_ + slot * slotBytes;
    const auto bytes = receiver_.memory().read(addr, wc.byteLen);
    // Repost the slot right away.
    dataQpRemote_.postRecv(addr, recvMr_->lkey(), slotBytes, slot);

    if (bytes.size() < headerBytes || bytes[0] != typeData)
        return;
    std::uint64_t seq = 0;
    std::memcpy(&seq, bytes.data() + 1, 8);

    if (deliveredSeqs_.insert(seq).second) {
        ++stats_.delivered;
        delivered_.emplace_back(bytes.begin() + headerBytes, bytes.end());
    } else {
        ++stats_.duplicatesDropped;
    }

    // ACK every copy (the sender may have retransmitted).
    const auto ack = encode(typeAck, seq, {});
    receiver_.memory().write(ackSendBuf_, ack);
    ackQp_.postSend(ackSendBuf_, ackSendMr_->lkey(),
                    static_cast<std::uint32_t>(ack.size()),
                    /*wr_id=*/seq);
}

void
SoftReliableChannel::onSenderCompletion(const verbs::WorkCompletion& wc)
{
    if (wc.opcode != verbs::WrOpcode::Recv || !wc.ok())
        return;
    const std::uint64_t slot = wc.wrId;
    const std::uint64_t addr = ackRecvBuf_ + slot * slotBytes;
    const auto bytes = sender_.memory().read(addr, wc.byteLen);
    ackQpRemote_.postRecv(addr, ackRecvMr_->lkey(), slotBytes, slot);

    if (bytes.size() < headerBytes || bytes[0] != typeAck)
        return;
    std::uint64_t seq = 0;
    std::memcpy(&seq, bytes.data() + 1, 8);

    auto it = pending_.find(seq);
    if (it != pending_.end()) {
        cluster_.events().cancel(it->second.retryTimer);
        pending_.erase(it);
    }
}

bool
SoftReliableChannel::acked(std::uint64_t seq) const
{
    return seq >= 1 && seq < nextSeq_ &&
           pending_.find(seq) == pending_.end() &&
           failedSeqs_.count(seq) == 0;
}

} // namespace swrel
} // namespace ibsim
