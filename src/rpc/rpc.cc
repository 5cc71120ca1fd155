#include "rpc/rpc.hh"

#include <cassert>
#include <cstring>

namespace ibsim {
namespace rpc {

namespace {

constexpr std::uint32_t headerBytes = 8;

/** Largest request/response payload of a client call. */
constexpr std::uint32_t clientMaxPayloadBytes = 1000;
constexpr std::uint64_t clientSlotBytes = headerBytes + clientMaxPayloadBytes;

/** RECV slots a client keeps posted. */
constexpr std::size_t clientRecvSlots = 64;

std::uint64_t
seqOf(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data(), 8);
    return v;
}

std::vector<std::uint8_t>
frame(std::uint64_t seq, const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> out(headerBytes + payload.size());
    std::memcpy(out.data(), &seq, 8);
    std::memcpy(out.data() + headerBytes, payload.data(),
                payload.size());
    return out;
}

verbs::QpConfig
udConfig()
{
    verbs::QpConfig config;
    config.transport = verbs::Transport::Ud;
    return config;
}

} // namespace

RpcServer::RpcServer(Cluster& cluster, Node& node, Handler handler,
                     std::size_t recv_slots, std::uint32_t max_payload)
    : cluster_(cluster), node_(node), handler_(std::move(handler)),
      maxPayload_(max_payload), slotBytes_(headerBytes + max_payload)
{
    cq_ = &node_.createCq();
    qp_ = node_.createQp(*cq_, udConfig());
    // UD QPs are unconnected; mark RTS with a dummy "connection" so the
    // engine accepts posts (destination comes per-WR).
    qp_.connect(/*dst_lid=*/0, /*dst_qpn=*/0);

    sendSlots_ = recv_slots;
    recvBuf_ = node_.alloc(slotBytes_ * recv_slots);
    sendBuf_ = node_.alloc(slotBytes_ * sendSlots_);
    node_.touch(recvBuf_, slotBytes_ * recv_slots);
    node_.touch(sendBuf_, slotBytes_ * sendSlots_);
    recvMr_ = &node_.registerMemory(recvBuf_, slotBytes_ * recv_slots,
                                    verbs::AccessFlags::pinned());
    sendMr_ = &node_.registerMemory(sendBuf_, slotBytes_ * sendSlots_,
                                    verbs::AccessFlags::pinned());
    for (std::size_t i = 0; i < recv_slots; ++i) {
        qp_.postRecv(recvBuf_ + i * slotBytes_, recvMr_->lkey(),
                     static_cast<std::uint32_t>(slotBytes_), i);
    }

    cq_->setListener([this](const verbs::WorkCompletion& wc) {
        if (wc.opcode == verbs::WrOpcode::Recv && wc.ok())
            onArrival(wc);
    });
}

verbs::AddressHandle
RpcServer::address() const
{
    verbs::AddressHandle ah;
    ah.lid = node_.lid();
    ah.qpn = const_cast<verbs::QueuePair&>(qp_).qpn();
    return ah;
}

void
RpcServer::onArrival(const verbs::WorkCompletion& wc)
{
    const std::uint64_t slot_addr = recvBuf_ + wc.wrId * slotBytes_;
    const auto bytes = node_.memory().read(slot_addr, wc.byteLen);
    qp_.postRecv(slot_addr, recvMr_->lkey(),
                 static_cast<std::uint32_t>(slotBytes_), wc.wrId);
    if (bytes.size() < headerBytes)
        return;

    const std::uint64_t seq = seqOf(bytes);
    const std::vector<std::uint8_t> request(bytes.begin() + headerBytes,
                                            bytes.end());
    auto response = handler_(request);
    assert(response.size() <= maxPayload_);
    ++served_;

    const auto wire = frame(seq, response);
    const std::uint64_t out =
        sendBuf_ + (sendSlot_++ % sendSlots_) * slotBytes_;
    node_.memory().write(out, wire);
    verbs::AddressHandle back;
    back.lid = wc.srcLid;
    back.qpn = wc.srcQpn;
    qp_.postSendUd(back, out, sendMr_->lkey(),
                   static_cast<std::uint32_t>(wire.size()),
                   /*wr_id=*/1ull << 61);
}

RpcClient::RpcClient(Cluster& cluster, Node& node,
                     verbs::AddressHandle server, RpcClientConfig config)
    : cluster_(cluster), node_(node), server_(server), config_(config)
{
    cq_ = &node_.createCq();
    qp_ = node_.createQp(*cq_, udConfig());
    qp_.connect(0, 0);

    constexpr std::uint64_t ringBytes = clientSlotBytes * clientRecvSlots;
    recvBuf_ = node_.alloc(ringBytes);
    sendBuf_ = node_.alloc(ringBytes);
    node_.touch(recvBuf_, ringBytes);
    node_.touch(sendBuf_, ringBytes);
    recvMr_ = &node_.registerMemory(recvBuf_, ringBytes,
                                    verbs::AccessFlags::pinned());
    sendMr_ = &node_.registerMemory(sendBuf_, ringBytes,
                                    verbs::AccessFlags::pinned());
    for (std::size_t i = 0; i < clientRecvSlots; ++i) {
        qp_.postRecv(recvBuf_ + i * clientSlotBytes, recvMr_->lkey(),
                     static_cast<std::uint32_t>(clientSlotBytes), i);
    }

    cq_->setListener([this](const verbs::WorkCompletion& wc) {
        if (wc.opcode == verbs::WrOpcode::Recv && wc.ok())
            onArrival(wc);
    });
}

std::uint64_t
RpcClient::call(const std::vector<std::uint8_t>& payload)
{
    assert(payload.size() <= clientMaxPayloadBytes);
    const std::uint64_t id = nextCall_++;
    PendingCall pc;
    pc.payload = payload;
    pending_.emplace(id, std::move(pc));
    ++stats_.calls;
    transmit(id);
    return id;
}

void
RpcClient::transmit(std::uint64_t id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return;
    ++it->second.attempts;

    const auto wire = frame(id, it->second.payload);
    const std::uint64_t out =
        sendBuf_ + (sendSlot_++ % clientRecvSlots) * clientSlotBytes;
    node_.memory().write(out, wire);
    qp_.postSendUd(server_, out, sendMr_->lkey(),
                   static_cast<std::uint32_t>(wire.size()),
                   /*wr_id=*/1ull << 61);

    it->second.timer = cluster_.events().scheduleAfter(
        cluster_.rng().jitter(config_.retryTimeout, 0.05),
        [this, id] { retryFired(id); });
}

void
RpcClient::retryFired(std::uint64_t id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return;  // answered meanwhile
    if (it->second.attempts > config_.maxRetries) {
        ++stats_.failed;
        failedCalls_[id] = true;
        pending_.erase(it);
        return;
    }
    ++stats_.retries;
    transmit(id);
}

void
RpcClient::onArrival(const verbs::WorkCompletion& wc)
{
    const std::uint64_t slot_addr = recvBuf_ + wc.wrId * clientSlotBytes;
    const auto bytes = node_.memory().read(slot_addr, wc.byteLen);
    qp_.postRecv(slot_addr, recvMr_->lkey(),
                 static_cast<std::uint32_t>(clientSlotBytes), wc.wrId);
    if (bytes.size() < headerBytes)
        return;

    const std::uint64_t id = seqOf(bytes);
    auto it = pending_.find(id);
    if (it == pending_.end())
        return;  // duplicate response
    cluster_.events().cancel(it->second.timer);
    pending_.erase(it);
    responses_[id].assign(bytes.begin() + headerBytes, bytes.end());
    ++stats_.completed;
}

bool
RpcClient::completed(std::uint64_t id) const
{
    return responses_.count(id) > 0 || failedCalls_.count(id) > 0;
}

bool
RpcClient::failed(std::uint64_t id) const
{
    return failedCalls_.count(id) > 0;
}

const std::vector<std::uint8_t>&
RpcClient::response(std::uint64_t id) const
{
    static const std::vector<std::uint8_t> empty;
    auto it = responses_.find(id);
    return it == responses_.end() ? empty : it->second;
}

} // namespace rpc
} // namespace ibsim
