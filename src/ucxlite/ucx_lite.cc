#include "ucxlite/ucx_lite.hh"

#include <cassert>
#include <cstring>

namespace ibsim {
namespace ucxlite {

namespace {

/** Control wire header: type, tag, three 64-bit fields, length. */
constexpr std::uint32_t headerBytes = 1 + 8 + 8 + 8 + 8 + 4;

/** Payloads up to this size go eager; larger go rendezvous. */
constexpr std::uint32_t eagerThreshold = 1024;

/** Control slot size: header plus the largest eager payload. */
constexpr std::uint64_t slotBytes = headerBytes + eagerThreshold;

/** Control receive slots per endpoint. */
constexpr std::size_t ctrlSlots = 64;

/** wr_id namespaces on the shared CQ. */
constexpr std::uint64_t ctrlWrBase = 1ull << 62;
constexpr std::uint64_t readWrBase = 1ull << 63;

std::uint64_t
get64(const std::vector<std::uint8_t>& b, std::size_t off)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + off, 8);
    return v;
}

std::uint32_t
get32(const std::vector<std::uint8_t>& b, std::size_t off)
{
    std::uint32_t v = 0;
    std::memcpy(&v, b.data() + off, 4);
    return v;
}

} // namespace

std::uint64_t
UcxEndpoint::tagSend(std::uint64_t tag, std::uint64_t addr,
                     std::uint32_t len)
{
    UcxWorker& w = *owner_;
    const std::uint64_t request = w.nextRequest_++;

    if (len <= eagerThreshold) {
        // Eager: the payload rides the control SEND; the request
        // completes when the SEND does (buffer reusable).
        ++w.stats_.eagerSends;
        const auto payload = w.node_.memory().read(addr, len);
        w.sendCtrl(*this, UcxWorker::msgEager, tag, request, 0, len,
                   payload.data(), len);
        return request;
    }

    // Rendezvous: advertise the source buffer; the receiver pulls it with
    // an RDMA READ and confirms with FIN. Registration goes through the
    // memory domain: implicit ODP (cold pages fault when the READ lands)
    // or the pin-down cache. The rkey and the sender request id share f2
    // (requests stay far below 2^32).
    ++w.stats_.rendezvousSends;
    verbs::MemoryRegion& mr = w.domainMr(addr, len);
    const std::uint64_t f2 =
        (static_cast<std::uint64_t>(mr.rkey()) << 32) |
        (request & 0xffffffffull);
    w.rendezvousSendLens_[request] = len;
    w.sendCtrl(*this, UcxWorker::msgRts, tag, addr, f2, len, nullptr, 0);
    return request;
}

std::uint64_t
UcxEndpoint::get(std::uint64_t laddr, const RemoteMemory& rmem,
                 std::uint32_t len)
{
    UcxWorker& w = *owner_;
    const std::uint64_t request = w.nextRequest_++;
    verbs::MemoryRegion& mr = w.domainMr(laddr, len);
    w.rmaLens_[request] = len;
    qp_.postRead(laddr, mr.lkey(), rmem.addr, rmem.rkey, len, request);
    return request;
}

std::uint64_t
UcxEndpoint::put(std::uint64_t laddr, const RemoteMemory& rmem,
                 std::uint32_t len)
{
    UcxWorker& w = *owner_;
    const std::uint64_t request = w.nextRequest_++;
    verbs::MemoryRegion& mr = w.domainMr(laddr, len);
    w.rmaLens_[request] = len;
    qp_.postWrite(laddr, mr.lkey(), rmem.addr, rmem.rkey, len, request);
    return request;
}

UcxWorker::UcxWorker(Cluster& cluster, Node& node, UcxConfig config)
    : cluster_(cluster), node_(node), config_(config)
{
    cq_ = &node_.createCq();
    cq_->setListener([this](const verbs::WorkCompletion& wc) {
        if (wc.opcode == verbs::WrOpcode::Recv) {
            onCtrlArrival(wc);
        } else if (wc.opcode == verbs::WrOpcode::Read &&
                   wc.wrId >= readWrBase) {
            onReadCompletion(wc);
        } else if (wc.opcode == verbs::WrOpcode::Send &&
                   wc.wrId < ctrlWrBase && wc.ok()) {
            // Eager send completion.
            auto it = eagerSendLens_.find(wc.wrId);
            if (it != eagerSendLens_.end()) {
                completedRequests_[wc.wrId] = it->second;
                eagerSendLens_.erase(it);
            }
        } else if ((wc.opcode == verbs::WrOpcode::Read ||
                    wc.opcode == verbs::WrOpcode::Write) &&
                   wc.wrId < ctrlWrBase && wc.ok()) {
            // One-sided RMA completion.
            auto it = rmaLens_.find(wc.wrId);
            if (it != rmaLens_.end()) {
                completedRequests_[wc.wrId] = it->second;
                rmaLens_.erase(it);
            }
        }
    });

    // A ring of send slots: sends queued behind a paused QP must keep
    // their bytes until they actually leave the wire.
    ctrlSendBuf_ = node_.alloc(slotBytes * ctrlSlots);
    node_.touch(ctrlSendBuf_, slotBytes * ctrlSlots);
    ctrlSendMr_ = &node_.registerMemory(ctrlSendBuf_, slotBytes * ctrlSlots,
                                        verbs::AccessFlags::pinned());

    if (!config_.useOdp) {
        regcache::RegCacheConfig cache_config;
        cache_config.capacityBytes = 0;  // unbounded for the domain
        regCache_ = std::make_unique<regcache::RegistrationCache>(
            node_, cluster_.events(), cache_config);
    }
}

UcxWorker::~UcxWorker() = default;

UcxEndpoint&
UcxWorker::connectTo(UcxWorker& peer)
{
    // Create both directions so either side can initiate traffic.
    auto& forward = makeEndpoint(peer);
    peer.makeEndpoint(*this);
    return forward;
}

UcxEndpoint&
UcxWorker::makeEndpoint(UcxWorker& peer)
{
    auto ep = std::make_unique<UcxEndpoint>();
    ep->owner_ = this;
    ep->peer_ = &peer;
    ep->index_ = endpoints_.size();

    auto pair = cluster_.connectRc(node_, *cq_, peer.node_, *peer.cq_,
                                   config_.qpConfig);
    ep->qp_ = pair.first;
    verbs::QueuePair inbound = pair.second;  // lives on the peer

    // The peer hears this endpoint's traffic on `inbound`: it posts the
    // control RECV slots there and maps the qpn to its reply endpoint
    // (fixed up below once the reverse endpoint exists).
    peer.armInbound(inbound);

    endpoints_.push_back(std::move(ep));
    UcxEndpoint& ref = *endpoints_.back();

    // Fix up reply routing on both sides where possible.
    peer.byRemoteQpn_[inbound.qpn()] = nullptr;  // placeholder
    // If the peer already has an endpoint back to us, bind it.
    for (auto& pep : peer.endpoints_) {
        if (pep->peer_ == this)
            peer.byRemoteQpn_[inbound.qpn()] = pep.get();
    }
    // And bind our own pending placeholders toward this peer.
    for (auto& [qpn, slot] : byRemoteQpn_) {
        if (slot == nullptr)
            slot = &ref;
    }
    return ref;
}

void
UcxWorker::armInbound(verbs::QueuePair inbound)
{
    const std::uint64_t block = node_.alloc(slotBytes * ctrlSlots);
    node_.touch(block, slotBytes * ctrlSlots);
    auto& mr = node_.registerMemory(block, slotBytes * ctrlSlots,
                                    verbs::AccessFlags::pinned());
    for (std::size_t i = 0; i < ctrlSlots; ++i) {
        const std::uint64_t wr_id = nextRecvSlot_++;
        RecvSlot rs;
        rs.qp = inbound;
        rs.addr = block + i * slotBytes;
        rs.lkey = mr.lkey();
        recvSlots_[wr_id] = rs;
        inbound.postRecv(rs.addr, rs.lkey,
                         static_cast<std::uint32_t>(slotBytes), wr_id);
    }
}

verbs::MemoryRegion&
UcxWorker::domainMr(std::uint64_t addr, std::uint32_t len)
{
    if (config_.useOdp) {
        if (!implicitMr_)
            implicitMr_ = &node_.registerImplicitOdp();
        return *implicitMr_;
    }
    return regCache_->acquire(addr, len);
}

void
UcxWorker::sendCtrl(UcxEndpoint& ep, std::uint8_t type, std::uint64_t tag,
                    std::uint64_t f1, std::uint64_t f2, std::uint32_t len,
                    const std::uint8_t* payload,
                    std::uint32_t payload_len)
{
    std::vector<std::uint8_t> wire(headerBytes + payload_len);
    wire[0] = type;
    std::memcpy(wire.data() + 1, &tag, 8);
    std::memcpy(wire.data() + 9, &f1, 8);
    std::memcpy(wire.data() + 17, &f2, 8);
    const std::uint64_t f3 = 0;  // reserved
    std::memcpy(wire.data() + 25, &f3, 8);
    std::memcpy(wire.data() + 33, &len, 4);
    if (payload_len > 0)
        std::memcpy(wire.data() + headerBytes, payload, payload_len);

    const std::uint64_t slot_addr =
        ctrlSendBuf_ + (ctrlSendSeq_ % ctrlSlots) * slotBytes;
    node_.memory().write(slot_addr, wire);
    std::uint64_t wr_id = ctrlWrBase + ctrlSendSeq_++;
    if (type == msgEager) {
        // Eager sends complete the user request at the SEND CQE.
        wr_id = f1;  // the request id
        eagerSendLens_[wr_id] = len;
    }
    ep.qp_.postSend(slot_addr, ctrlSendMr_->lkey(),
                    static_cast<std::uint32_t>(wire.size()), wr_id);
}

RemoteMemory
UcxWorker::expose(std::uint64_t addr, std::uint32_t len)
{
    verbs::MemoryRegion& mr = domainMr(addr, len);
    RemoteMemory rmem;
    rmem.addr = addr;
    rmem.rkey = mr.rkey();
    rmem.len = len;
    return rmem;
}

std::uint64_t
UcxWorker::tagRecv(std::uint64_t tag, std::uint64_t addr,
                   std::uint32_t maxlen)
{
    const std::uint64_t request = nextRequest_++;

    // Pre-acquire the landing buffer's memory handle at harness level
    // (the pin-down cache charges registration time here; implicit ODP
    // is free until the pages fault).
    verbs::MemoryRegion& mr = domainMr(addr, maxlen);

    // Check the unexpected queue first.
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
        if (it->tag != tag)
            continue;
        UnexpectedMessage msg = std::move(*it);
        unexpected_.erase(it);
        PostedRecv recv;
        recv.request = request;
        recv.tag = tag;
        recv.addr = addr;
        recv.maxlen = maxlen;
        recv.lkey = mr.lkey();
        deliver(recv, msg);
        return request;
    }

    PostedRecv recv;
    recv.request = request;
    recv.tag = tag;
    recv.addr = addr;
    recv.maxlen = maxlen;
    recv.lkey = mr.lkey();
    postedRecvs_.push_back(recv);
    return request;
}

void
UcxWorker::onCtrlArrival(const verbs::WorkCompletion& wc)
{
    auto slot_it = recvSlots_.find(wc.wrId);
    if (slot_it == recvSlots_.end() || !wc.ok())
        return;
    RecvSlot slot = slot_it->second;
    const auto bytes = node_.memory().read(slot.addr, wc.byteLen);
    // Repost immediately.
    slot.qp.postRecv(slot.addr, slot.lkey,
                     static_cast<std::uint32_t>(slotBytes), wc.wrId);

    if (bytes.size() < headerBytes)
        return;
    const std::uint8_t type = bytes[0];
    const std::uint64_t tag = get64(bytes, 1);
    const std::uint64_t f1 = get64(bytes, 9);
    const std::uint64_t f2 = get64(bytes, 17);
    const std::uint32_t len = get32(bytes, 33);

    if (type == msgFin) {
        // f1 = the sender-side request id being confirmed.
        completedRequests_[f1] = len;
        rendezvousSendLens_.erase(f1);
        return;
    }

    UnexpectedMessage msg;
    msg.tag = tag;
    msg.len = len;
    msg.replyEp = byRemoteQpn_[wc.qpn];
    if (type == msgEager) {
        msg.rendezvous = false;
        msg.payload.assign(bytes.begin() + headerBytes,
                           bytes.begin() + headerBytes + len);
    } else {  // msgRts
        msg.rendezvous = true;
        msg.raddr = f1;
        msg.rkey = static_cast<std::uint32_t>(f2 >> 32);
        msg.senderRequest = f2 & 0xffffffffull;
    }
    matchOrQueue(std::move(msg));
}

void
UcxWorker::matchOrQueue(UnexpectedMessage&& msg)
{
    for (auto it = postedRecvs_.begin(); it != postedRecvs_.end(); ++it) {
        if (it->tag != msg.tag)
            continue;
        PostedRecv recv = *it;
        postedRecvs_.erase(it);
        deliver(recv, msg);
        return;
    }
    ++stats_.unexpectedMessages;
    unexpected_.push_back(std::move(msg));
}

void
UcxWorker::deliver(const PostedRecv& recv, const UnexpectedMessage& msg)
{
    assert(msg.len <= recv.maxlen && "receive buffer too small");
    if (!msg.rendezvous) {
        node_.memory().write(recv.addr, msg.payload);
        completedRequests_[recv.request] = msg.len;
        return;
    }
    startRendezvous(recv, msg);
}

void
UcxWorker::startRendezvous(const PostedRecv& recv,
                           const UnexpectedMessage& rts)
{
    ++stats_.rendezvousReads;
    assert(rts.replyEp && "no reply endpoint for rendezvous");
    PendingRead pending;
    pending.recvRequest = recv.request;
    pending.replyEp = rts.replyEp;
    pending.senderRequest = rts.senderRequest;
    pending.len = rts.len;
    const std::uint64_t wr_id = readWrBase + recv.request;
    pendingReads_[wr_id] = pending;
    // The pull: an RDMA READ from the sender's advertised buffer into the
    // user's landing buffer. Under implicit ODP both ends may fault.
    rts.replyEp->qp_.postRead(recv.addr, recv.lkey, rts.raddr, rts.rkey,
                              rts.len, wr_id);
}

void
UcxWorker::onReadCompletion(const verbs::WorkCompletion& wc)
{
    auto it = pendingReads_.find(wc.wrId);
    if (it == pendingReads_.end())
        return;
    PendingRead pending = it->second;
    pendingReads_.erase(it);
    if (!wc.ok())
        return;
    completedRequests_[pending.recvRequest] = pending.len;
    // FIN back to the sender: the READ-then-SEND shape of Sec. VII-A.
    sendCtrl(*pending.replyEp, msgFin, 0, pending.senderRequest, 0,
             pending.len, nullptr, 0);
}

bool
UcxWorker::completed(std::uint64_t request) const
{
    return completedRequests_.count(request) > 0;
}

std::uint32_t
UcxWorker::receivedBytes(std::uint64_t request) const
{
    auto it = completedRequests_.find(request);
    return it == completedRequests_.end() ? 0 : it->second;
}

} // namespace ucxlite
} // namespace ibsim
