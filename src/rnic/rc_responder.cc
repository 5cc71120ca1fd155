#include "rnic/rc_responder.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "rnic/rc_requester.hh"
#include "rnic/rnic.hh"
#include "simcore/log.hh"
#include "verbs/memory_region.hh"

namespace ibsim {
namespace rnic {

namespace {

log::Component traceRc("rc");

} // namespace

RcResponder::RcResponder(Rnic& rnic, QpContext& qp) : rnic_(rnic), qp_(qp)
{
}

void
RcResponder::resetForRecovery()
{
    parked_.reset();
    parkedPagesLeft_ = 0;
    seqNakSent_ = false;
    atomicCache_ = {};
    atomicCacheOrder_.clear();
}

void
RcResponder::onRequest(const net::Packet& pkt)
{
    if (qp_.state == QpState::Error)
        return;

    if (qp_.config.transport == verbs::Transport::Uc) {
        onUcRequest(pkt);
        return;
    }
    if (qp_.config.transport == verbs::Transport::Ud) {
        onUdRequest(pkt);
        return;
    }

    if (pkt.dammed && rnic_.profile().dammingQuirk) {
        // The damming quirk swallows this request whole -- no reply of
        // any kind, regardless of where its PSN sits: the ConnectX-4
        // fault-processing path black-holes requests that entered during
        // a pending window until the requester recovers via timeout or a
        // PSN-sequence-error NAK provoked by a *clean* request
        // (DESIGN.md #4).
        ++qp_.stats.dammedDrops;
        IBSIM_TRACE(traceRc, rnic_.events().now(),
                    "qpn=" + std::to_string(qp_.qpn) +
                        " dammed request dropped psn=" +
                        std::to_string(pkt.psn));
        return;
    }

    const std::int32_t diff = psnDiff(pkt.psn, qp_.expectedPsn);

    if (diff > 0) {
        // Out-of-sequence request: something before it was lost. One NAK
        // per occurrence; duplicates of the gap are dropped silently.
        if (!seqNakSent_) {
            seqNakSent_ = true;
            sendSeqNak();
        }
        return;
    }

    if (diff < 0) {
        // Duplicate of an already-executed request: re-serve reads
        // (idempotent), re-ACK writes/sends without re-executing, and
        // answer atomics from the replay cache (never re-execute).
        switch (pkt.op) {
          case net::Opcode::ReadRequest:
            execute(pkt, /*duplicate=*/true);
            break;
          case net::Opcode::WriteRequest:
          case net::Opcode::Send:
            sendAck(pkt.psn, /*replayed=*/true);
            break;
          case net::Opcode::AtomicRequest: {
            if (const std::uint64_t* cached = atomicCache_.find(pkt.psn)) {
                sendAtomicResponse(pkt.psn, *cached, /*replayed=*/true);
            }
            break;
          }
          default:
            break;
        }
        return;
    }

    executeInSequence(pkt);
}

void
RcResponder::executeInSequence(const net::Packet& pkt)
{
    if (!execute(pkt, /*duplicate=*/false))
        return;
    // A READ's reserved range covers all its response packets.
    const std::uint32_t segments =
        pkt.op == net::Opcode::ReadRequest ? segmentCount(pkt.length, pathMtu)
                                           : 1;
    qp_.expectedPsn = (qp_.expectedPsn + segments) & 0xffffff;
    seqNakSent_ = false;
}

void
RcResponder::onUdRequest(const net::Packet& pkt)
{
    // Datagram service: SENDs only, no ordering, no acks. A datagram
    // with no posted RECV (or an ODP-cold or deregistered landing
    // buffer) is dropped — and every such drop is counted, so delivered
    // datagrams always reconcile as successful RECV completions plus
    // udDrops (invariant U3).
    if (pkt.op != net::Opcode::Send)
        return;
    ++qp_.stats.udDeliveredSends;
    if (!landUnreliableSend(pkt, /*datagram=*/true))
        ++qp_.stats.udDrops;
}

bool
RcResponder::landUnreliableSend(const net::Packet& pkt, bool datagram)
{
    if (qp_.recvQueue.empty())
        return false;
    RecvWqe& rq = qp_.recvQueue.front();
    if (pkt.length > rq.length)
        return false;
    verbs::MemoryRegion* mr = rnic_.findMr(rq.lkey);
    if (mr == nullptr) {
        failHeadRecv();
        return false;
    }
    if (mr->odp() && !mr->table().mappedRange(rq.addr, pkt.length)) {
        rnic_.driver().raiseFault(
            mr->table(), mr->table().firstUnmapped(rq.addr, pkt.length));
        return false;
    }
    rnic_.memory().write(rq.addr, pkt.payload);
    rnic_.complete(qp_, rq.wrId, verbs::WrOpcode::Recv,
                   verbs::WcStatus::Success, pkt.length,
                   datagram ? pkt.srcLid : 0, datagram ? pkt.srcQpn : 0);
    qp_.recvQueue.pop_front();
    return true;
}

void
RcResponder::onUcRequest(const net::Packet& pkt)
{
    // UC: accept anything at or past the expected PSN (losses just leave
    // gaps -- no NAKs, no retransmission); drop genuine reordering.
    if (psnDiff(pkt.psn, qp_.expectedPsn) < 0)
        return;
    qp_.expectedPsn = psnNext(pkt.psn);

    switch (pkt.op) {
      case net::Opcode::WriteRequest: {
        verbs::MemoryRegion* mr = rnic_.findMr(pkt.rkey);
        if (!mr || !mr->contains(pkt.raddr, pkt.length) ||
            !mr->access().remoteWrite)
            return;  // silently dropped: UC has no NAK machinery
        if (mr->odp() &&
            !mr->table().mappedRange(pkt.raddr, pkt.length)) {
            // ODP on UC: the fault is raised but the packet is lost.
            rnic_.driver().raiseFault(
                mr->table(),
                mr->table().firstUnmapped(pkt.raddr, pkt.length));
            return;
        }
        rnic_.memory().write(pkt.raddr, pkt.payload);
        return;
      }
      case net::Opcode::Send:
        // No RECV posted, truncation or an ODP-cold buffer: dropped.
        landUnreliableSend(pkt, /*datagram=*/false);
        return;
      default:
        return;  // READ/atomics are not part of UC
    }
}

bool
RcResponder::pagesReady(const net::Packet& pkt, bool arrange_proactive)
{
    verbs::MemoryRegion* mr = rnic_.findMr(pkt.rkey);
    assert(mr);
    if (!mr->odp())
        return true;

    const std::uint64_t unmapped =
        mr->table().firstUnmapped(pkt.raddr, pkt.length);
    if (unmapped == 0)
        return true;

    // Server-side ODP: suspend the sender with an RNR NAK and raise the
    // fault(s). The request itself is not stored in the RNIC -- except
    // that resolving the fault proactively serves the parked in-sequence
    // request once (whose reply the waiting requester then discards).
    sendRnrNak(pkt.psn);

    const std::uint64_t first = mem::pageOf(pkt.raddr);
    const std::uint64_t last = mem::pageOf(pkt.raddr + pkt.length - 1);
    const bool arrange = arrange_proactive && !parked_.has_value();
    if (arrange) {
        parked_ = pkt;
        parkedPagesLeft_ = 0;
    }
    for (std::uint64_t p = first; p <= last; ++p) {
        const std::uint64_t va = p * mem::pageSize;
        if (mr->table().mappedPage(va))
            continue;
        if (arrange) {
            ++parkedPagesLeft_;
            // The QP may be destroyed before the fault resolves: look
            // its responder up again by QPN when the callback runs.
            rnic_.driver().raiseFault(
                mr->table(), va, [&rnic = rnic_, qpn = qp_.qpn] {
                    if (Rnic::QpRecord* record = rnic.qpRecord(qpn))
                        record->responder->proactiveResolve();
                });
        } else {
            rnic_.driver().raiseFault(mr->table(), va);
        }
    }
    return false;
}

void
RcResponder::proactiveResolve()
{
    if (--parkedPagesLeft_ > 0)
        return;
    if (!parked_.has_value() || qp_.state == QpState::Error)
        return;
    net::Packet pkt = *parked_;
    parked_.reset();
    // Only serve it if nothing else advanced the stream meanwhile.
    if (psnDiff(pkt.psn, qp_.expectedPsn) == 0)
        executeInSequence(pkt);
}

void
RcResponder::failHeadRecv()
{
    rnic_.complete(qp_, qp_.recvQueue.front().wrId, verbs::WrOpcode::Recv,
                   verbs::WcStatus::LocProtErr);
    qp_.recvQueue.pop_front();
    rnic_.qpRecord(qp_.qpn)->requester->flushAll(verbs::WcStatus::WrFlushErr);
}

bool
RcResponder::execute(const net::Packet& pkt, bool duplicate)
{
    switch (pkt.op) {
      case net::Opcode::ReadRequest: {
        verbs::MemoryRegion* mr = rnic_.findMr(pkt.rkey);
        if (!mr || !mr->contains(pkt.raddr, pkt.length) ||
            !mr->access().remoteRead) {
            sendAccessNak(pkt.psn);
            return false;
        }
        if (!pagesReady(pkt, /*arrange_proactive=*/!duplicate))
            return false;
        sendReadResponse(pkt, /*replayed=*/duplicate);
        return true;
      }

      case net::Opcode::WriteRequest: {
        verbs::MemoryRegion* mr = rnic_.findMr(pkt.rkey);
        if (!mr || !mr->contains(pkt.raddr, pkt.length) ||
            !mr->access().remoteWrite) {
            sendAccessNak(pkt.psn);
            return false;
        }
        if (!pagesReady(pkt, /*arrange_proactive=*/!duplicate))
            return false;
        assert(!duplicate && "duplicate writes are re-ACKed, not re-run");
        const std::uint64_t off =
            static_cast<std::uint64_t>(pkt.segIndex) * pathMtu;
        rnic_.memory().write(pkt.raddr + off, pkt.payload);
        // One coalesced ACK when the message completes.
        if (pkt.segIndex + 1 == pkt.segCount)
            sendAck(pkt.psn);
        return true;
      }

      case net::Opcode::AtomicRequest: {
        verbs::MemoryRegion* mr = rnic_.findMr(pkt.rkey);
        if (!mr || !mr->contains(pkt.raddr, 8) ||
            !mr->access().remoteWrite) {
            sendAccessNak(pkt.psn);
            return false;
        }
        if (!pagesReady(pkt, /*arrange_proactive=*/!duplicate))
            return false;
        assert(!duplicate && "duplicate atomics replay from the cache");

        const std::uint64_t old_value = applyAtomic(pkt);
        cacheAtomicResult(pkt.psn, old_value);
        sendAtomicResponse(pkt.psn, old_value);
        return true;
      }

      case net::Opcode::Send: {
        if (qp_.recvQueue.empty()) {
            // Receiver not ready in the classic sense: no RECV WQE.
            sendRnrNak(pkt.psn);
            return false;
        }
        RecvWqe& rq = qp_.recvQueue.front();
        if (pkt.length > rq.length) {
            sendAccessNak(pkt.psn);
            return false;
        }
        verbs::MemoryRegion* mr = rnic_.findMr(rq.lkey);
        if (mr == nullptr) {
            sendAccessNak(pkt.psn);
            failHeadRecv();
            return false;
        }
        if (mr->odp()) {
            net::Packet probe = pkt;
            probe.raddr = rq.addr;
            probe.rkey = rq.lkey;
            if (!pagesReady(probe, /*arrange_proactive=*/!duplicate))
                return false;
        }
        assert(!duplicate && "duplicate sends are re-ACKed, not re-run");
        const std::uint64_t off =
            static_cast<std::uint64_t>(pkt.segIndex) * pathMtu;
        rnic_.memory().write(rq.addr + off, pkt.payload);
        if (pkt.segIndex + 1 < pkt.segCount)
            return true;  // more segments of this message to come
        rnic_.complete(qp_, rq.wrId, verbs::WrOpcode::Recv,
                       verbs::WcStatus::Success, pkt.length);
        qp_.recvQueue.pop_front();

        sendAck(pkt.psn);
        return true;
      }

      default:
        return false;
    }
}

std::uint64_t
RcResponder::applyAtomic(const net::Packet& pkt)
{
    // Execute the 64-bit atomic against host memory.
    const auto old_bytes = rnic_.memory().read(pkt.raddr, 8);
    std::uint64_t old_value = 0;
    std::memcpy(&old_value, old_bytes.data(), 8);
    std::uint64_t new_value;
    if (pkt.atomicIsCompSwap) {
        new_value = old_value == pkt.atomicCompare ? pkt.atomicOperand
                                                   : old_value;
    } else {
        new_value = old_value + pkt.atomicOperand;
    }
    std::vector<std::uint8_t> new_bytes(8);
    std::memcpy(new_bytes.data(), &new_value, 8);
    rnic_.memory().write(pkt.raddr, new_bytes);
    return old_value;
}

void
RcResponder::cacheAtomicResult(std::uint32_t psn, std::uint64_t old_value)
{
    const bool fresh = atomicCache_.find(psn) == nullptr;
    atomicCache_[psn] = old_value;
    // A reused PSN (24-bit wrap, or a reconnect resetting the stream)
    // must refresh the existing record in place. Pushing a second order
    // entry for it would make eviction erase the live map record early
    // and let the ring drift past the capacity the map is accounted
    // against.
    if (fresh)
        atomicCacheOrder_.push_back(psn);
    if (atomicCacheOrder_.size() > rnic_.profile().atomicReplayDepth) {
        atomicCache_.erase(atomicCacheOrder_.front());
        atomicCacheOrder_.pop_front();
    }
}

void
RcResponder::sendReadResponse(const net::Packet& req, bool replayed)
{
    // The response stream occupies the request's reserved PSN range: one
    // packet per MTU-sized chunk.
    const std::uint32_t segments = segmentCount(req.length, pathMtu);
    for (std::uint32_t seg = 0; seg < segments; ++seg) {
        const std::uint32_t off = seg * pathMtu;
        const std::uint32_t chunk = std::min(pathMtu, req.length - off);
        net::Packet resp;
        resp.op = net::Opcode::ReadResponse;
        resp.psn = (req.psn + seg) & 0xffffff;
        resp.replayed = replayed;
        resp.length = chunk;
        resp.segIndex = seg;
        resp.segCount = segments;
        resp.payload = rnic_.memory().read(req.raddr + off, chunk);
        rnic_.sendPacket(std::move(resp), qp_);
    }
}

void
RcResponder::sendAtomicResponse(std::uint32_t psn, std::uint64_t old_value,
                                bool replayed)
{
    net::Packet resp;
    resp.op = net::Opcode::AtomicResponse;
    resp.psn = psn;
    resp.replayed = replayed;
    resp.length = 8;
    resp.payload.resize(8);
    std::memcpy(resp.payload.data(), &old_value, 8);
    rnic_.sendPacket(std::move(resp), qp_);
}

void
RcResponder::sendAck(std::uint32_t psn, bool replayed)
{
    net::Packet ack;
    ack.op = net::Opcode::Ack;
    ack.psn = psn;
    ack.replayed = replayed;
    rnic_.sendPacket(std::move(ack), qp_);
}

void
RcResponder::sendSeqNak()
{
    net::Packet nak;
    nak.op = net::Opcode::Nak;
    nak.nak = net::NakCode::PsnSequenceError;
    nak.psn = qp_.expectedPsn;
    rnic_.sendPacket(std::move(nak), qp_);
}

void
RcResponder::sendAccessNak(std::uint32_t psn)
{
    net::Packet nak;
    nak.op = net::Opcode::Nak;
    nak.nak = net::NakCode::RemoteAccessError;
    nak.psn = psn;
    rnic_.sendPacket(std::move(nak), qp_);
}

void
RcResponder::sendRnrNak(std::uint32_t psn)
{
    net::Packet nak;
    nak.op = net::Opcode::RnrNak;
    nak.psn = psn;
    nak.rnrDelay = qp_.config.minRnrNakDelay;
    rnic_.sendPacket(std::move(nak), qp_);
}

} // namespace rnic
} // namespace ibsim
