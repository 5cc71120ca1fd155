#include "rnic/rnic.hh"

#include <cassert>

#include "rnic/rc_requester.hh"
#include "rnic/rc_responder.hh"
#include "simcore/log.hh"

namespace ibsim {
namespace rnic {

namespace {

log::Component traceRnic("rnic");

/** SM sweep delay before a reroute takes effect. */
constexpr Time smRerouteDelay = Time::ms(1);

/** @{ CM re-arm handshake retry policy. */
constexpr Time cmRetryInterval = Time::ms(1);
constexpr std::uint8_t cmRetryLimit = 7;
/** @} */

} // namespace

Rnic::Rnic(EventQueue& events, Rng& rng, net::Fabric& fabric,
           std::uint16_t lid, DeviceProfile profile,
           mem::AddressSpace& memory, odp::OdpDriver& driver,
           odp::PageStatusBoard& board)
    : events_(events), rng_(rng), fabric_(fabric), lid_(lid),
      profile_(std::move(profile)), memory_(memory), driver_(driver),
      board_(board)
{
    fabric_.attach(lid_, *this);
    driver_.setResolutionObserver(
        [this](odp::TranslationTable& table, std::uint64_t page) {
            board_.onPageMapped(table, page);
        });
}

Rnic::~Rnic()
{
    fabric_.detach(lid_);
}

void
Rnic::registerMr(verbs::MemoryRegion& mr)
{
    mrs_.insert(mr.rkey(), &mr);
}

void
Rnic::deregisterMr(std::uint32_t key)
{
    mrs_.erase(key);
    if (mruKey_ == key) {
        mruKey_ = 0;
        mruMr_ = nullptr;
    }
}

verbs::MemoryRegion*
Rnic::findMr(std::uint32_t key)
{
    if (key == mruKey_)
        return mruMr_;
    verbs::MemoryRegion** mr = mrs_.find(key);
    if (mr == nullptr)
        return nullptr;
    mruKey_ = key;
    mruMr_ = *mr;
    return *mr;
}

QpContext&
Rnic::createQp(verbs::CompletionQueue& cq, verbs::QpConfig config)
{
    const std::uint32_t qpn =
        firstQpn + static_cast<std::uint32_t>(qps_.size());
    QpRecord record;
    record.ctx = std::make_unique<QpContext>();
    record.ctx->qpn = qpn;
    record.ctx->config = config;
    record.ctx->cq = &cq;
    record.requester = std::make_unique<RcRequester>(*this, *record.ctx);
    record.responder = std::make_unique<RcResponder>(*this, *record.ctx);
    qps_.push_back(std::move(record));
    // A UD QP addresses peers per work request, so its island's
    // cross-island routes cannot be declared connection by connection —
    // fall back to dense edges (sound, just conservative).
    if (config.transport == verbs::Transport::Ud)
        fabric_.declareDenseIsland(fabric_.islandOf(lid_));
    return *qps_.back().ctx;
}

void
Rnic::connectQp(QpContext& qp, std::uint16_t dst_lid, std::uint32_t dst_qpn)
{
    fabric_.declareRoute(lid_, dst_lid);
    qp.dstLid = dst_lid;
    qp.dstQpn = dst_qpn;
    qp.pathDown = false;
    qp.rerouted = false;
    resetQp(*qpRecord(qp.qpn), qp.resetEpoch, QpState::Rts);
}

Rnic::QpRecord*
Rnic::qpRecord(std::uint32_t qpn)
{
    if (qpn < firstQpn)
        return nullptr;
    const std::size_t index = qpn - firstQpn;
    if (index >= qps_.size() || qps_[index].ctx == nullptr)
        return nullptr;
    return &qps_[index];
}

void
Rnic::destroyQp(std::uint32_t qpn)
{
    QpRecord* record = qpRecord(qpn);
    if (record == nullptr)
        return;
    QpContext& qp = *record->ctx;
    events_.cancel(qp.retransmitTimer);
    events_.cancel(qp.rnrTimer);
    events_.cancel(qp.clientRexmitTimer);
    events_.cancel(qp.cmTimer);
    if (qp.active())
        qpBecameIdle();
    record->requester.reset();
    record->responder.reset();
    record->ctx.reset();
}

QpContext*
Rnic::findQp(std::uint32_t qpn)
{
    QpRecord* record = qpRecord(qpn);
    return record == nullptr ? nullptr : record->ctx.get();
}

void
Rnic::postSend(QpContext& qp, SendWqe wqe)
{
    QpRecord* record = qpRecord(qp.qpn);
    assert(record != nullptr);
    for (const auto& tap : sendPostTaps_)
        tap(qp, wqe);
    // An Error QP flushes the WR before it is looked at. Otherwise every
    // opcode names a local buffer (READ and the atomics land their
    // result there, SEND and WRITE read their payload from it), the QP
    // must be connected, and the transport must carry the verb: UC has
    // SEND and WRITE, UD has single-datagram SENDs only.
    const verbs::MemoryRegion* mr = findMr(wqe.lkey);
    const verbs::Transport transport = qp.config.transport;
    verbs::WcStatus refused = verbs::WcStatus::Success;
    if (mr == nullptr || !mr->contains(wqe.laddr, wqe.length))
        refused = verbs::WcStatus::LocProtErr;
    else if (qp.state == QpState::Reset ||
             (transport != verbs::Transport::Rc &&
              wqe.op != verbs::WrOpcode::Send &&
              (transport == verbs::Transport::Ud ||
               wqe.op != verbs::WrOpcode::Write)))
        refused = verbs::WcStatus::LocQpOpErr;
    else if (transport == verbs::Transport::Ud && wqe.length > pathMtu)
        refused = verbs::WcStatus::LocLenErr;
    if (qp.state != QpState::Error && refused != verbs::WcStatus::Success) {
        record->requester->failPost(wqe.wrId, wqe.op, refused);
        return;
    }
    record->requester->post(std::move(wqe));
}

void
Rnic::postRecv(QpContext& qp, RecvWqe wqe)
{
    for (const auto& tap : recvPostTaps_)
        tap(qp, wqe);
    // An Error QP flushes the RECV, as postSend flushes a send. Otherwise
    // the landing buffer is checked at post, as postSend checks its
    // local buffer: a SEND must never land through a bad lkey.
    if (qp.state == QpState::Error) {
        complete(qp, wqe.wrId, verbs::WrOpcode::Recv,
                 verbs::WcStatus::WrFlushErr);
        return;
    }
    const verbs::MemoryRegion* mr = findMr(wqe.lkey);
    if (mr == nullptr || !mr->contains(wqe.addr, wqe.length)) {
        qpRecord(qp.qpn)->requester->failPost(
            wqe.wrId, verbs::WrOpcode::Recv, verbs::WcStatus::LocProtErr);
        return;
    }
    qp.recvQueue.push_back(wqe);
}

TapId
Rnic::addSendPostTap(SendPostTap tap)
{
    return sendPostTaps_.add(std::move(tap));
}

TapId
Rnic::addRecvPostTap(RecvPostTap tap)
{
    return recvPostTaps_.add(std::move(tap));
}

void
Rnic::removeSendPostTap(TapId id)
{
    sendPostTaps_.remove(id);
}

void
Rnic::removeRecvPostTap(TapId id)
{
    recvPostTaps_.remove(id);
}

void
Rnic::sendPacket(net::Packet pkt, QpContext& qp)
{
    pkt.srcLid = lid_;
    pkt.srcQpn = qp.qpn;
    pkt.dstLid = qp.dstLid;
    pkt.dstQpn = qp.dstQpn;
    pkt.epoch = qp.resetEpoch;
    pkt.rerouted = qp.rerouted;
    ++stats_.packetsSent;
    fabric_.send(std::move(pkt));
}

void
Rnic::sendRaw(net::Packet pkt)
{
    ++stats_.packetsSent;
    if (!fabric_.attached(pkt.dstLid))
        ++stats_.udUnroutedDrops;
    fabric_.send(std::move(pkt));
}

bool
Rnic::validPacket(const net::Packet& pkt) const
{
    // Largest DMA length any sane workload posts; corrupted length fields
    // beyond it are discarded instead of driving absurd serializations
    // and wild responder arithmetic.
    constexpr std::uint32_t maxSaneLength = 1u << 28;

    if (static_cast<std::uint8_t>(pkt.op) >
        static_cast<std::uint8_t>(net::Opcode::CmRearmAck)) {
        return false;  // corrupted opcode
    }
    if (pkt.segCount < 1 || pkt.segIndex >= pkt.segCount)
        return false;
    if (pkt.length > maxSaneLength || pkt.payload.size() > maxSaneLength)
        return false;
    return true;
}

void
Rnic::receive(const net::Packet& pkt)
{
    ++stats_.packetsReceived;

    // ICRC model: corruption injected by the chaos engine fails the
    // end-to-end CRC and the packet is silently discarded at ingress,
    // unless the injector explicitly models a CRC-evading flip.
    if ((pkt.chaosFlags & net::Packet::chaosCorrupted) &&
        !(pkt.chaosFlags & net::Packet::chaosCrcEvading)) {
        ++stats_.crcDrops;
        IBSIM_TRACE(traceRnic, events_.now(), "icrc drop: " + pkt.str());
        return;
    }

    // Wire garbage that slipped past the CRC is dropped and counted, not
    // asserted on: a malformed packet must never crash the device.
    if (!validPacket(pkt)) {
        ++stats_.malformedDrops;
        IBSIM_TRACE(traceRnic, events_.now(),
                    "malformed drop: " + pkt.str());
        return;
    }

    QpRecord* record = qpRecord(pkt.dstQpn);
    if (record == nullptr) {
        ++stats_.packetsToUnknownQp;
        return;
    }

    // CM re-arm handshake packets carry the *new* epoch and are handled
    // before the epoch filter below; everything else from a stale reset
    // epoch is discarded so pre-reset traffic cannot corrupt the re-armed
    // PSN streams. Legacy QPs never leave epoch 0, so this never fires
    // for them.
    if (pkt.op == net::Opcode::CmRearm) {
        onCmRearm(*record, pkt);
        return;
    }
    if (pkt.op == net::Opcode::CmRearmAck) {
        onCmRearmAck(*record, pkt);
        return;
    }
    if (pkt.epoch != record->ctx->resetEpoch) {
        ++stats_.staleEpochDrops;
        IBSIM_TRACE(traceRnic, events_.now(),
                    "stale epoch drop: " + pkt.str());
        return;
    }

    switch (pkt.op) {
      case net::Opcode::ReadRequest:
      case net::Opcode::WriteRequest:
      case net::Opcode::Send:
      case net::Opcode::AtomicRequest:
        record->responder->onRequest(pkt);
        break;
      case net::Opcode::ReadResponse:
      case net::Opcode::AtomicResponse:
        record->requester->onReadResponse(pkt);
        break;
      case net::Opcode::Ack:
        record->requester->onAck(pkt);
        break;
      case net::Opcode::Nak:
        record->requester->onNak(pkt);
        break;
      case net::Opcode::RnrNak:
        record->requester->onRnrNak(pkt);
        break;
      case net::Opcode::CmRearm:
      case net::Opcode::CmRearmAck:
        break;  // handled above
    }
}

void
Rnic::addAsyncEventTap(AsyncEventTap tap)
{
    asyncEventTaps_.push_back(std::move(tap));
}

void
Rnic::fireAsyncEvent(verbs::AsyncEventType type, std::uint16_t peer_lid,
                     std::uint32_t qpn, bool redundant)
{
    if (asyncEventTaps_.empty())
        return;
    verbs::AsyncEvent ev;
    ev.type = type;
    ev.lid = lid_;
    ev.peerLid = peer_lid;
    ev.qpn = qpn;
    ev.redundantPath = redundant;
    ev.at = events_.now();
    for (const auto& tap : asyncEventTaps_)
        tap(ev);
}

void
Rnic::portEvent(const net::PortEvent& ev)
{
    using Type = net::PortEvent::Type;
    const bool down =
        ev.type == Type::PortDown || ev.type == Type::PathDown;
    const bool pathScoped =
        ev.type == Type::PathDown || ev.type == Type::PathUp;
    if (down)
        ++stats_.portDownEvents;
    else
        ++stats_.portUpEvents;

    IBSIM_TRACE(traceRnic, events_.now(),
                "lid=" + std::to_string(lid_) + " port event peer=" +
                    std::to_string(ev.peerLid) +
                    (down ? " DOWN" : " UP"));

    for (auto& record : qps_) {
        if (record.ctx == nullptr || record.ctx->state == QpState::Reset)
            continue;
        QpContext& qp = *record.ctx;
        if (pathScoped && qp.dstLid != ev.peerLid)
            continue;
        if (down) {
            qp.pathDown = true;
            if (profile_.smReroute && ev.redundantPath && !qp.rerouted) {
                // SM sweep: after smRerouteDelay, if the path is still
                // down, re-resolve the LID route over the redundant link.
                const std::uint32_t qpn = qp.qpn;
                events_.scheduleAfter(smRerouteDelay, [this, qpn] {
                    QpContext* q = findQp(qpn);
                    if (q != nullptr && q->pathDown && !q->rerouted) {
                        q->rerouted = true;
                        ++stats_.reroutes;
                    }
                });
            }
        } else {
            qp.pathDown = false;
            qp.rerouted = false;
            if (qp.state == QpState::Error && profile_.qpRecoveryOnPortUp)
                startRecovery(qp);
        }
    }

    verbs::AsyncEventType type;
    switch (ev.type) {
      case Type::PortUp: type = verbs::AsyncEventType::PortActive; break;
      case Type::PortDown: type = verbs::AsyncEventType::PortError; break;
      case Type::PathUp: type = verbs::AsyncEventType::PathActive; break;
      case Type::PathDown:
      default: type = verbs::AsyncEventType::PathError; break;
    }
    fireAsyncEvent(type, ev.peerLid, 0, ev.redundantPath);
}

void
Rnic::complete(QpContext& qp, std::uint64_t wr_id, verbs::WrOpcode op,
               verbs::WcStatus status, std::uint32_t byte_len,
               std::uint16_t src_lid, std::uint32_t src_qpn)
{
    verbs::WorkCompletion wc;
    wc.wrId = wr_id;
    wc.status = status;
    wc.opcode = op;
    wc.byteLen = byte_len;
    wc.qpn = qp.qpn;
    wc.srcLid = src_lid;
    wc.srcQpn = src_qpn;
    wc.completedAt = events_.now();
    qp.cq->push(wc);
}

void
Rnic::noteQpError(QpContext& qp)
{
    ++stats_.qpsEnteredError;
    fireAsyncEvent(verbs::AsyncEventType::QpFatal, qp.dstLid, qp.qpn,
                   false);
}

void
Rnic::startRecovery(QpContext& qp)
{
    if (qp.state != QpState::Error)
        return;
    QpRecord* record = qpRecord(qp.qpn);
    assert(record != nullptr);
    assert(qp.outstanding.empty() &&
           "Error-state QPs have flushed their send queue");

    // Both directions restart under a new epoch, then Init: a CM-style
    // re-arm handshake with the peer, until the matching-epoch ack
    // brings the QP to RTS. Posts queue meanwhile.
    resetQp(*record, static_cast<std::uint16_t>(qp.resetEpoch + 1),
            QpState::Init);
    IBSIM_TRACE(traceRnic, events_.now(),
                "qpn=" + std::to_string(qp.qpn) + " recovery epoch " +
                    std::to_string(qp.resetEpoch));
    sendCmRearm(qp);
    armCmTimer(qp);
}

void
Rnic::resetQp(QpRecord& record, std::uint16_t epoch, QpState state)
{
    QpContext& qp = *record.ctx;
    qp.resetEpoch = epoch;
    qp.nextPsn = 0;
    qp.sendCursor = 0;
    qp.expectedPsn = 0;
    qp.retryCount = 0;
    qp.dammingEpisode = false;
    qp.episodeDamsLeft = 0;
    qp.cmRetries = 0;
    qp.state = state;
    record.responder->resetForRecovery();
}

void
Rnic::sendCmRearm(QpContext& qp)
{
    net::Packet pkt;
    pkt.op = net::Opcode::CmRearm;
    ++stats_.cmRearmsSent;
    sendPacket(std::move(pkt), qp);
}

void
Rnic::armCmTimer(QpContext& qp)
{
    events_.cancel(qp.cmTimer);
    const std::uint32_t qpn = qp.qpn;
    qp.cmTimer = events_.scheduleAfter(cmRetryInterval,
                                       [this, qpn] { cmTimerFired(qpn); });
}

void
Rnic::cmTimerFired(std::uint32_t qpn)
{
    QpRecord* record = qpRecord(qpn);
    if (record == nullptr)
        return;
    QpContext& qp = *record->ctx;
    if (qp.state != QpState::Init)
        return;
    if (++qp.cmRetries > cmRetryLimit) {
        // Handshake failed (peer dead, or the path never came back):
        // back to Error, flushing anything queued during recovery.
        record->requester->flushAll(verbs::WcStatus::RetryExcErr);
        return;
    }
    sendCmRearm(qp);
    armCmTimer(qp);
}

void
Rnic::onCmRearm(QpRecord& record, const net::Packet& pkt)
{
    QpContext& qp = *record.ctx;
    // Epochs compare on their own 16-bit ring: higher = newer recovery.
    const auto diff = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(pkt.epoch - qp.resetEpoch));
    if (diff < 0)
        return;  // stale handshake from a superseded recovery
    if (diff > 0) {
        // Adopt the initiator's epoch: this side transitions through
        // reset too — flush anything still in flight, re-arm both
        // directions, and come up RTS immediately (the initiator is the
        // one waiting on an ack).
        const bool wasError = qp.state == QpState::Error;
        if (!qp.outstanding.empty())
            record.requester->flushAll(verbs::WcStatus::WrFlushErr);
        events_.cancel(qp.cmTimer);
        resetQp(record, pkt.epoch, QpState::Rts);
        if (wasError) {
            ++stats_.qpsRecovered;
            fireAsyncEvent(verbs::AsyncEventType::QpRecovered, qp.dstLid,
                           qp.qpn, false);
        }
    }
    // Ack under the (possibly just adopted) epoch; idempotent for
    // retransmitted re-arms (diff == 0).
    net::Packet ack;
    ack.op = net::Opcode::CmRearmAck;
    sendPacket(std::move(ack), qp);
}

void
Rnic::onCmRearmAck(QpRecord& record, const net::Packet& pkt)
{
    QpContext& qp = *record.ctx;
    if (pkt.epoch != qp.resetEpoch)
        return;  // ack for a superseded handshake
    if (qp.state != QpState::Init)
        return;  // duplicate ack after recovery completed
    events_.cancel(qp.cmTimer);
    qp.state = QpState::Rts;
    ++stats_.qpsRecovered;
    IBSIM_TRACE(traceRnic, events_.now(),
                "qpn=" + std::to_string(qp.qpn) + " recovered (RTS)");
    fireAsyncEvent(verbs::AsyncEventType::QpRecovered, qp.dstLid, qp.qpn,
                   false);
    // Restart the send engine for the WRs queued during the handshake.
    record.requester->pump();
}

std::vector<QpContext*>
Rnic::allQps()
{
    std::vector<QpContext*> out;
    out.reserve(qps_.size());
    for (auto& record : qps_) {
        if (record.ctx != nullptr)
            out.push_back(record.ctx.get());
    }
    return out;
}

} // namespace rnic
} // namespace ibsim
