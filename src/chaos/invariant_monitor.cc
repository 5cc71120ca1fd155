#include "chaos/invariant_monitor.hh"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "swrel/soft_reliable.hh"
#include "verbs/completion_queue.hh"

namespace ibsim {
namespace chaos {

namespace {

constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
mix(std::uint64_t hash, std::uint64_t value)
{
    return (hash ^ value) * fnvPrime;
}

std::string
flowStr(std::uint16_t lid, std::uint32_t qpn)
{
    return "lid=" + std::to_string(lid) + " qpn=" + std::to_string(qpn);
}

/** A flow's key in its shard's flowIndex; sorts as (lid, qpn). */
std::uint64_t
flowKey(std::uint16_t lid, std::uint32_t qpn)
{
    return (std::uint64_t(lid) << 32) | qpn;
}

/** The entry for @p psn in a PSN-sorted ledger, or nullptr. */
template <typename Entry>
Entry*
findPsn(std::vector<Entry>& ledger, std::uint32_t psn)
{
    auto it = std::lower_bound(
        ledger.begin(), ledger.end(), psn,
        [](const Entry& e, std::uint32_t p) { return e.psn < p; });
    return it != ledger.end() && it->psn == psn ? &*it : nullptr;
}

/**
 * The entry for @p psn in a PSN-sorted ledger and whether it was just
 * inserted. PSNs mostly arrive in increasing order, so new entries are
 * usually appended.
 */
template <typename Entry>
std::pair<Entry*, bool>
entryForPsn(std::vector<Entry>& ledger, std::uint32_t psn)
{
    if (ledger.empty() || ledger.back().psn < psn)
        return {&ledger.emplace_back(Entry{psn, {}}), true};
    auto it = std::lower_bound(
        ledger.begin(), ledger.end(), psn,
        [](const Entry& e, std::uint32_t p) { return e.psn < p; });
    if (it != ledger.end() && it->psn == psn)
        return {&*it, false};
    return {&*ledger.insert(it, Entry{psn, {}}), true};
}

} // namespace

bool
PsnRunSet::insert(std::uint32_t psn)
{
    assert(psn <= 0xffffff);
    const std::size_t count = runCount();
    if (count == 0) {
        inline_ = {psn, psn};
        inlineCount_ = 1;
        hint_ = 0;
        return true;
    }
    Run* r = runs();
    // In-order streams extend the run the previous insert touched: test
    // the hint before searching.
    const bool hinted = r[hint_].first <= psn &&
                        (hint_ + 1 == count || psn < r[hint_ + 1].first);
    const std::ptrdiff_t i =
        hinted ? static_cast<std::ptrdiff_t>(hint_) : runAtOrBelow(psn);
    if (i >= 0 && psn <= r[i].last)
        return false;
    const std::size_t next = static_cast<std::size_t>(i + 1);
    const bool joinsLeft = i >= 0 && r[i].last + 1 == psn;
    const bool joinsRight = next < count && r[next].first == psn + 1;
    if (joinsLeft && joinsRight) {
        // Two runs exist, so they live in spill_.
        r[i].last = r[next].last;
        spill_.erase(spill_.begin() + next);
        hint_ = static_cast<std::uint32_t>(i);
    } else if (joinsLeft) {
        r[i].last = psn;
        hint_ = static_cast<std::uint32_t>(i);
    } else if (joinsRight) {
        r[next].first = psn;
        hint_ = static_cast<std::uint32_t>(next);
    } else {
        if (spill_.empty())
            spill_.push_back(inline_);
        spill_.insert(spill_.begin() + next, Run{psn, psn});
        hint_ = static_cast<std::uint32_t>(next);
    }
    return true;
}

bool
PsnRunSet::contains(std::uint32_t psn) const
{
    const std::ptrdiff_t i = runAtOrBelow(psn);
    return i >= 0 && psn <= runs()[i].last;
}

void
PsnRunSet::clear()
{
    spill_.clear();
    inlineCount_ = 0;
    hint_ = 0;
}

std::ptrdiff_t
PsnRunSet::runAtOrBelow(std::uint32_t psn) const
{
    const Run* r = runs();
    const Run* end = r + runCount();
    const Run* it = std::upper_bound(
        r, end, psn, [](std::uint32_t p, const Run& run) {
            return p < run.first;
        });
    return (it - r) - 1;
}

std::string
Violation::str() const
{
    return "[" + at.str() + "] " + invariant + " " + flowStr(lid, qpn) +
           ": " + detail;
}

InvariantMonitor::InvariantMonitor(net::Fabric& fabric) : fabric_(fabric)
{
    shards_.resize(fabric_.islandCount());
    fabricTap_ = fabric_.addTap([this](const net::Packet& pkt, bool dropped) {
        onEgress(pkt, dropped);
    });
    ingressTap_ = fabric_.addIngressTap(
        [this](const net::Packet& pkt) { onIngress(pkt); });
}

InvariantMonitor::~InvariantMonitor()
{
    // Every tap captures this: traffic after the monitor is gone must
    // not call into it.
    fabric_.removeTap(fabricTap_);
    fabric_.removeIngressTap(ingressTap_);
    for (const auto& [rnic, taps] : rnicTaps_) {
        rnic->removeSendPostTap(taps.first);
        rnic->removeRecvPostTap(taps.second);
    }
    for (const auto& [cq, tap] : cqTaps_)
        cq->removeTap(tap);
}

void
InvariantMonitor::watch(rnic::Rnic& rnic, rnic::QpContext& qp)
{
    const std::uint16_t lid = rnic.lid();
    const std::uint64_t key = flowKey(lid, qp.qpn);
    Shard& shard = shardOf(lid);
    if (const std::uint32_t* index = shard.flowIndex.find(key)) {
        shard.flows[*index].qp = &qp;
    } else {
        const FlowState* last =
            shard.flows.empty() ? nullptr : &shard.flows.back();
        if (last != nullptr && key < flowKey(last->lid, last->qpn))
            shard.flowsSorted = false;
        shard.flowIndex.insert(
            key, static_cast<std::uint32_t>(shard.flows.size()));
        FlowState& st = shard.flows.emplace_back();
        st.qp = &qp;
        st.lid = lid;
        st.qpn = qp.qpn;
        st.lastNextPsn = qp.nextPsn;
        st.attachPsn = qp.nextPsn;
        st.lateAttach = qp.nextPsn != 0 || !qp.outstanding.empty();
    }

    if (auto [it, fresh] = rnicTaps_.try_emplace(&rnic); fresh) {
        it->second.first = rnic.addSendPostTap(
            [this, lid](const rnic::QpContext& q, const rnic::SendWqe& w) {
                onSendPost(lid, q, w);
            });
        it->second.second = rnic.addRecvPostTap(
            [this, lid](const rnic::QpContext& q, const rnic::RecvWqe& w) {
                onRecvPost(lid, q, w);
            });
    }
    if (qp.cq == nullptr)
        return;
    if (auto [it, fresh] = cqTaps_.try_emplace(qp.cq); fresh) {
        it->second =
            qp.cq->addTap([this, lid](const verbs::WorkCompletion& wc) {
                onCompletion(lid, wc);
            });
    }
}

void
InvariantMonitor::watchAll(Cluster& cluster)
{
    // Size every shard's flow storage for the QPs about to be watched,
    // so attach does not regrow the tables QP by QP. Growth stays
    // geometric: repeated calls as QPs are added must not reallocate
    // the flows on every call.
    std::vector<std::vector<rnic::QpContext*>> qps(cluster.nodeCount());
    std::vector<std::size_t> added(shards_.size(), 0);
    for (std::size_t i = 0; i < cluster.nodeCount(); ++i) {
        qps[i] = cluster.node(i).rnic().allQps();
        added[fabric_.islandOf(cluster.node(i).rnic().lid())] +=
            qps[i].size();
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = shards_[s];
        const std::size_t want = shard.flows.size() + added[s];
        if (want > shard.flows.capacity())
            shard.flows.reserve(std::max(want, 2 * shard.flows.capacity()));
        shard.flowIndex.reserve(want);
    }
    for (std::size_t i = 0; i < cluster.nodeCount(); ++i) {
        rnic::Rnic& rnic = cluster.node(i).rnic();
        for (rnic::QpContext* qp : qps[i])
            watch(rnic, *qp);
    }
}

InvariantMonitor::Shard&
InvariantMonitor::shardOf(std::uint16_t lid)
{
    return shards_[fabric_.islandOf(lid)];
}

InvariantMonitor::Shard&
InvariantMonitor::egressShard()
{
    return shards_[fabric_.egressIsland()];
}

InvariantMonitor::FlowState*
InvariantMonitor::flow(std::uint16_t lid, std::uint32_t qpn)
{
    Shard& shard = shardOf(lid);
    const std::uint32_t* index = shard.flowIndex.find(flowKey(lid, qpn));
    return index == nullptr ? nullptr : &shard.flows[*index];
}

void
InvariantMonitor::emit(Shard& shard, const std::string& invariant, Time at,
                       std::uint16_t lid, std::uint32_t qpn,
                       const std::string& detail)
{
    ++shard.violationCount;
    if (shard.violations.size() < storedCap)
        shard.violations.push_back({invariant, at, lid, qpn, detail});
}

void
InvariantMonitor::onEgress(const net::Packet& pkt, bool dropped)
{
    // Everything below mutates only the executing island's shard — the
    // source flow of every non-injected packet lives on that island
    // (fabric routing), injected packets only touch the hash and the
    // source-flow attribution flag. The two destination-flow checks run
    // at ingress (onIngress).
    Shard& shard = egressShard();
    ++shard.packetsObserved;
    shard.hash = mix(shard.hash, static_cast<std::uint64_t>(pkt.op));
    shard.hash = mix(shard.hash, (std::uint64_t(pkt.srcLid) << 16) |
                                     pkt.dstLid);
    shard.hash = mix(shard.hash, (std::uint64_t(pkt.srcQpn) << 32) |
                                     pkt.dstQpn);
    shard.hash = mix(shard.hash, pkt.psn);
    shard.hash = mix(shard.hash, (std::uint64_t(pkt.length) << 32) |
                                     (pkt.segIndex << 8) | pkt.segCount);
    shard.hash = mix(shard.hash,
                     (std::uint64_t(pkt.chaosFlags) << 8) |
                         (std::uint64_t(pkt.retransmission) << 2) |
                         (std::uint64_t(pkt.dammed) << 1) |
                         std::uint64_t(dropped));

    // Injected noise (duplicates, corruption, forgeries) is the
    // injector's doing, not the endpoint's: excluded from bookkeeping.
    if (pkt.chaosFlags != 0) {
        // One exception must be recorded: corruption mangles packets the
        // endpoint really emitted, and it may hit the PSN or opcode of a
        // replay-cache answer — the A1 ledger then cannot attribute the
        // answer and would report a false "unanswered duplicate". The
        // replayed mark and the source address survive corruption (the
        // injector never touches them), so note the broken evidence
        // chain and let finalCheck() stand down A1-lost for this flow.
        if ((pkt.chaosFlags & net::Packet::chaosCorrupted) != 0 &&
            pkt.replayed) {
            FlowState* rs = flow(pkt.srcLid, pkt.srcQpn);
            if (rs != nullptr)
                rs->atomicAnswerAttributionLost = true;
        }
        // A second exception, same evidence-chain reasoning: an
        // uncorrupted clone of an atomic answer proves the responder
        // emitted that answer. When a later erasing stage (drop, flap,
        // loss model) removes the original delivery in the same
        // pipeline pass, only the clone reaches this tap — skipping it
        // would undercount the A1 ledger into a false "replay lost".
        // Credit it; over-crediting when both copies survive is safe
        // because the A1 check is one-sided (answered < required).
        else if ((pkt.chaosFlags & net::Packet::chaosDuplicated) != 0 &&
                 pkt.op == net::Opcode::AtomicResponse) {
            FlowState* rs = flow(pkt.srcLid, pkt.srcQpn);
            if (rs != nullptr)
                creditAtomicAnswer(*rs, pkt.psn);
        }
        return;
    }

    // CM re-arm handshake traffic is control plane: it carries reset
    // epochs, not transport PSNs, so the request/response families must
    // not book it (its PSN field would alias PSN 0 of the new stream).
    // Already hash-mixed above, so it still shows in trace goldens.
    if (pkt.op == net::Opcode::CmRearm || pkt.op == net::Opcode::CmRearmAck)
        return;

    if (isRequestOpcode(pkt.op))
        onRequestEgress(shard, pkt);
    else
        onResponseEgress(shard, pkt);
}

void
InvariantMonitor::syncEpoch(FlowState& st)
{
    if (st.qp == nullptr || st.qp->resetEpoch == st.lastEpoch)
        return;
    // Recovery restarted the PSN stream from zero: re-anchor every
    // PSN-keyed ledger. The completion ledgers (C1/C2/F1) survive on
    // purpose — a recovered QP re-delivering an already-acked WR must
    // still trip send-exactly-once.
    st.lastEpoch = st.qp->resetEpoch;
    st.freshSeen.clear();
    st.anyPostSeen = false;
    st.lastNextPsn = st.qp->nextPsn;
    st.attachPsn = 0;
    st.lateAttach = false;
    st.atomics.reset();
    st.anyFreshData = false;
    st.anyFreshAtomic = false;
}

void
InvariantMonitor::onRequestEgress(Shard& shard, const net::Packet& pkt)
{
    const Time now = fabric_.islandEvents(fabric_.egressIsland()).now();
    FlowState* st = flow(pkt.srcLid, pkt.srcQpn);
    if (st == nullptr || st->qp == nullptr)
        return;
    syncEpoch(*st);
    const rnic::QpContext& qp = *st->qp;
    // A READ reserves [psn, psn+segCount) with one wire packet; all
    // other requests occupy one PSN per packet.
    const std::uint32_t span =
        pkt.op == net::Opcode::ReadRequest ? pkt.segCount : 1;
    const std::uint32_t last = (pkt.psn + span - 1) & 0xffffff;

    // Service-type verb/fire-and-forget contracts (V1/U1/V3): judged
    // before the late-attach gate because they hold for every packet
    // the flow ever emits, whenever we started watching.
    const verbs::Transport transport = qp.config.transport;
    if (transport == verbs::Transport::Ud) {
        if (pkt.op != net::Opcode::Send) {
            emit(shard, "ud-verb", now, pkt.srcLid, pkt.srcQpn,
                 std::string(net::opcodeName(pkt.op)) +
                     " emitted by a UD flow (SEND only)");
        }
        if (pkt.retransmission) {
            emit(shard, "ud-no-retransmit", now, pkt.srcLid, pkt.srcQpn,
                 "UD datagram psn=" + std::to_string(pkt.psn) +
                     " marked as a retransmission");
        }
    } else if (transport == verbs::Transport::Uc) {
        if (pkt.op != net::Opcode::Send &&
            pkt.op != net::Opcode::WriteRequest) {
            emit(shard, "uc-verb", now, pkt.srcLid, pkt.srcQpn,
                 std::string(net::opcodeName(pkt.op)) +
                     " emitted by a UC flow (SEND/WRITE only)");
        }
        if (pkt.retransmission) {
            emit(shard, "uc-no-retransmit", now, pkt.srcLid, pkt.srcQpn,
                 "UC psn=" + std::to_string(pkt.psn) +
                     " marked as a retransmission");
        }
    }

    // Late attach: PSNs below the attach snapshot were posted before
    // we were watching, so their first (fresh) transmission is not
    // ours to judge.
    if (st->lateAttach && rnic::psnDiff(pkt.psn, st->attachPsn) < 0)
        return;
    if (!pkt.retransmission) {
        for (std::uint32_t i = 0; i < span; ++i) {
            const std::uint32_t p = (pkt.psn + i) & 0xffffff;
            if (!st->freshSeen.insert(p)) {
                emit(shard, "fresh-once", now, pkt.srcLid, pkt.srcQpn,
                     "fresh " + std::string(net::opcodeName(pkt.op)) +
                         " reuses psn=" + std::to_string(p));
            }
        }
        if (rnic::psnDiff(last, qp.nextPsn) >= 0) {
            emit(shard, "fresh-posted", now, pkt.srcLid, pkt.srcQpn,
                 "fresh psn=" + std::to_string(pkt.psn) +
                     " beyond posted range (nextPsn=" +
                     std::to_string(qp.nextPsn) + ")");
        }
    } else if (transport == verbs::Transport::Rc) {
        if (rnic::psnDiff(last, qp.nextPsn) >= 0) {
            emit(shard, "retrans-posted", now, pkt.srcLid, pkt.srcQpn,
                 "retransmitted psn=" + std::to_string(pkt.psn) +
                     " beyond posted range (nextPsn=" +
                     std::to_string(qp.nextPsn) + ")");
        }
        if (!qp.outstanding.empty() &&
            rnic::psnDiff(pkt.psn, qp.outstanding.front().psn) < 0) {
            emit(shard, "retrans-window", now, pkt.srcLid, pkt.srcQpn,
                 "retransmitted psn=" + std::to_string(pkt.psn) +
                     " below go-back-N window head=" +
                     std::to_string(qp.outstanding.front().psn));
        }
    }
}

void
InvariantMonitor::creditAtomicAnswer(FlowState& st, std::uint32_t psn)
{
    if (st.atomics == nullptr)
        return;
    if (AtomicDup* dup = findPsn(st.atomics->dups, psn))
        ++dup->answered;
}

void
InvariantMonitor::onResponseEgress(Shard& shard, const net::Packet& pkt)
{
    const Time now = fabric_.islandEvents(fabric_.egressIsland()).now();

    // Responder-role checks, judged against the emitting (source) flow.
    FlowState* rs = flow(pkt.srcLid, pkt.srcQpn);
    if (rs == nullptr || rs->qp == nullptr)
        return;
    syncEpoch(*rs);
    const verbs::Transport transport = rs->qp->config.transport;
    if (transport == verbs::Transport::Ud ||
        transport == verbs::Transport::Uc) {
        // V2: no ACK/NAK/response machinery exists for UD/UC.
        emit(shard,
             transport == verbs::Transport::Ud ? "ud-one-way"
                                               : "uc-one-way",
             now, pkt.srcLid, pkt.srcQpn,
             std::string(net::opcodeName(pkt.op)) +
                 " emitted by a one-way flow");
    } else {
        if (pkt.op == net::Opcode::AtomicResponse) {
            // A1 value consistency: every answer for one PSN carries
            // the same original value; a re-executing responder
            // returns the post-update value instead.
            if (rs->atomics == nullptr)
                rs->atomics = std::make_unique<AtomicLedger>();
            auto [pinned, first] =
                entryForPsn(rs->atomics->payloads, pkt.psn);
            if (first) {
                pinned->payload = pkt.payload;
            } else if (pinned->payload != pkt.payload) {
                emit(shard, "atomic-replay-value", now, pkt.srcLid,
                     pkt.srcQpn,
                     "atomic psn=" + std::to_string(pkt.psn) +
                         " answered with a different value than its "
                         "first response (responder re-executed)");
            }
            creditAtomicAnswer(*rs, pkt.psn);
        } else if (pkt.op == net::Opcode::RnrNak ||
                   (pkt.op == net::Opcode::Nak &&
                    pkt.nak == net::NakCode::RemoteAccessError)) {
            // A duplicate atomic answered with RNR or an access NAK
            // is answered, not lost (PSN-sequence NAKs reference
            // expectedPsn, never the duplicate, so they don't count).
            creditAtomicAnswer(*rs, pkt.psn);
        }

        // A2: fresh (non-replayed) executions leave the responder in
        // expectedPsn order, so an atomic's response PSN exceeds
        // every earlier fresh data response and no fresh READ data
        // follows at or below an answered atomic's PSN. Replay-cache
        // re-serves are exempt: they answer old PSNs by design.
        if (!pkt.replayed) {
            if (pkt.op == net::Opcode::AtomicResponse) {
                if (rs->anyFreshData &&
                    rnic::psnDiff(pkt.psn, rs->lastFreshDataPsn) <= 0) {
                    emit(shard, "atomic-serialization", now, pkt.srcLid,
                         pkt.srcQpn,
                         "fresh atomic response psn=" +
                             std::to_string(pkt.psn) +
                             " does not serialize after data response "
                             "psn=" +
                             std::to_string(rs->lastFreshDataPsn));
                }
                rs->anyFreshData = true;
                rs->lastFreshDataPsn = pkt.psn;
                rs->anyFreshAtomic = true;
                rs->lastFreshAtomicPsn = pkt.psn;
            } else if (pkt.op == net::Opcode::ReadResponse) {
                if (rs->anyFreshAtomic &&
                    rnic::psnDiff(pkt.psn, rs->lastFreshAtomicPsn) <=
                        0) {
                    emit(shard, "atomic-serialization", now, pkt.srcLid,
                         pkt.srcQpn,
                         "fresh read response psn=" +
                             std::to_string(pkt.psn) +
                             " emitted at/below answered atomic psn=" +
                             std::to_string(rs->lastFreshAtomicPsn));
                }
                rs->anyFreshData = true;
                rs->lastFreshDataPsn = pkt.psn;
            }
        }
    }
}

void
InvariantMonitor::onIngress(const net::Packet& pkt)
{
    // Runs on the destination island before the packet's delivery, so
    // it reads and writes only destination flows. Same exclusions as
    // at egress: injected noise and CM re-arm control traffic.
    if (pkt.chaosFlags != 0 || pkt.op == net::Opcode::CmRearm ||
        pkt.op == net::Opcode::CmRearmAck) {
        return;
    }
    FlowState* st = flow(pkt.dstLid, pkt.dstQpn);
    if (st == nullptr || st->qp == nullptr ||
        st->qp->config.transport != verbs::Transport::Rc ||
        st->qp->resetEpoch != pkt.epoch) {
        return;
    }
    const rnic::QpContext& qp = *st->qp;

    if (pkt.op == net::Opcode::AtomicRequest) {
        // A1 bookkeeping: a duplicate atomic delivered inside the
        // responder's executed range MUST be answered from the replay
        // cache — silence means the cache evicted a record the PSN window
        // still required. Excluded: dammed exchanges (lost by the quirk
        // before the responder sees them) and error-state responders.
        if (!pkt.dammed && !qp.errorState &&
            rnic::psnDiff(pkt.psn, qp.expectedPsn) < 0) {
            if (st->atomics == nullptr)
                st->atomics = std::make_unique<AtomicLedger>();
            ++entryForPsn(st->atomics->dups, pkt.psn).first->mustAnswer;
        }
    } else if (!isRequestOpcode(pkt.op) &&
               rnic::psnDiff(pkt.psn, qp.nextPsn) >= 0) {
        // W4: a response names a PSN its requester posted.
        emit(shardOf(pkt.dstLid), "ack-coherence", pkt.sentAt, pkt.dstLid,
             pkt.dstQpn,
             std::string(net::opcodeName(pkt.op)) + " references psn=" +
                 std::to_string(pkt.psn) +
                 " never posted by the requester (nextPsn=" +
                 std::to_string(qp.nextPsn) + ")");
    }
}

void
InvariantMonitor::onSendPost(std::uint16_t lid, const rnic::QpContext& qp,
                             const rnic::SendWqe& wqe)
{
    FlowState* st = flow(lid, qp.qpn);
    if (st == nullptr)
        return;
    syncEpoch(*st);
    // P1: the post tap fires before PSN assignment, so qp.nextPsn is the
    // value every earlier post advanced it to — it must never regress.
    // Holds for every transport: UC/UD assign from the same counter.
    if (st->anyPostSeen &&
        rnic::psnDiff(qp.nextPsn, st->lastNextPsn) < 0) {
        emit(shardOf(lid), "psn-monotonic",
             fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid, qp.qpn,
             "nextPsn regressed " + std::to_string(st->lastNextPsn) +
                 " -> " + std::to_string(qp.nextPsn));
    }
    st->anyPostSeen = true;
    st->lastNextPsn = qp.nextPsn;
    ++st->sendPosted;
    ++st->sendWrs[wqe.wrId].posted;
}

void
InvariantMonitor::onRecvPost(std::uint16_t lid, const rnic::QpContext& qp,
                             const rnic::RecvWqe& wqe)
{
    FlowState* st = flow(lid, qp.qpn);
    if (st == nullptr)
        return;
    ++st->recvWrs[wqe.wrId].posted;
}

void
InvariantMonitor::onCompletion(std::uint16_t lid,
                               const verbs::WorkCompletion& wc)
{
    FlowState* st = flow(lid, wc.qpn);
    if (st == nullptr)
        return;
    // E1: an Error-state QP must not produce *successful* completions.
    // Flush completions drain legally (and RcRequester pushes them
    // before flipping the state); a success here means the send engine
    // kept delivering past the error transition.
    if (wc.ok() && st->qp != nullptr &&
        st->qp->state == rnic::QpState::Error) {
        emit(shardOf(lid), "error-qp-completion",
             fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid, wc.qpn,
             "successful completion wrId=" + std::to_string(wc.wrId) +
                 " delivered while the QP is in the Error state");
    }
    const bool recv = wc.opcode == verbs::WrOpcode::Recv;
    auto& ledger = recv ? st->recvWrs : st->sendWrs;
    WrCount* count = ledger.find(wc.wrId);
    // Late attach: a completion for a WR we never saw posted belongs to
    // the pre-attach era, not to the oracle — skipping it keeps C1, C2
    // and F1 judging observed posts only.
    if (st->lateAttach && (count == nullptr || count->posted == 0))
        return;
    if (count == nullptr)
        count = &ledger.insert(wc.wrId, WrCount{});
    ++(recv ? st->recvCompleted : st->sendCompleted);
    if (++count->completed > count->posted) {
        emit(shardOf(lid), recv ? "recv-exactly-once" : "send-exactly-once",
             fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid,
             wc.qpn,
             "wrId=" + std::to_string(wc.wrId) + " completed " +
                 std::to_string(count->completed) + "x but posted " +
                 std::to_string(count->posted) + "x");
    }
}

void
InvariantMonitor::finalCheck()
{
    // Runs after the simulation (never from a worker); shards are
    // visited in island order and flows in (lid, qpn) order, so the
    // output is worker-count- and watch-order-invariant.
    std::vector<const FlowState*> order;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& shard = shards_[i];
        const Time at = fabric_.islandEvents(i).now();
        order.clear();
        for (const FlowState& st : shard.flows)
            order.push_back(&st);
        if (!shard.flowsSorted) {
            std::sort(order.begin(), order.end(),
                      [](const FlowState* a, const FlowState* b) {
                          return flowKey(a->lid, a->qpn) <
                                 flowKey(b->lid, b->qpn);
                      });
        }
        for (const FlowState* entry : order) {
            const FlowState& st = *entry;
            if (st.sendCompleted != st.sendPosted) {
                emit(shard, "send-completion-missing", at, st.lid, st.qpn,
                     std::to_string(st.sendPosted) +
                         " send WRs posted but " +
                         std::to_string(st.sendCompleted) + " completed");
            }

            // A1: every delivered executed-range duplicate atomic must
            // have drawn an answer (replay cache, RNR or access NAK) by
            // drain. Stand down when the injector corrupted a replay
            // answer in flight: the ledger can no longer attribute
            // answers to PSNs.
            if (!st.atomicAnswerAttributionLost && st.atomics != nullptr) {
                for (const AtomicDup& dup : st.atomics->dups) {
                    if (dup.answered < dup.mustAnswer) {
                        emit(shard, "atomic-replay-lost", at, st.lid, st.qpn,
                             "duplicate atomic psn=" +
                                 std::to_string(dup.psn) + " delivered " +
                                 std::to_string(dup.mustAnswer) +
                                 "x but answered " +
                                 std::to_string(dup.answered) +
                                 "x (replay cache lost a required record)");
                    }
                }
            }

            // U3: datagrams delivered to a UD flow reconcile exactly as
            // RECV completions plus counted drops — nothing vanishes
            // silently. (Late-attach flows skip pre-attach completions,
            // so the books cannot balance; they are excluded.)
            if (st.qp != nullptr && !st.lateAttach &&
                st.qp->config.transport == verbs::Transport::Ud) {
                const auto& qs = st.qp->stats;
                if (qs.udDeliveredSends != st.recvCompleted + qs.udDrops) {
                    emit(shard, "ud-silent-drop", at, st.lid, st.qpn,
                         std::to_string(qs.udDeliveredSends) +
                             " datagrams delivered but " +
                             std::to_string(st.recvCompleted) +
                             " received + " + std::to_string(qs.udDrops) +
                             " counted drops");
                }
            }
        }
    }
}

void
InvariantMonitor::checkSwrel(const swrel::SoftReliableChannel& channel)
{
    Shard& shard = shards_.front();
    const Time at = fabric_.islandEvents(0).now();
    if (channel.delivered().size() != channel.deliveredSeqCount()) {
        emit(shard, "swrel-exactly-once", at, 0, 0,
             std::to_string(channel.delivered().size()) +
                 " deliveries for " +
                 std::to_string(channel.deliveredSeqCount()) +
                 " distinct sequence numbers");
    }
    if (channel.stats().delivered != channel.delivered().size()) {
        emit(shard, "swrel-exactly-once", at, 0, 0,
             "delivered counter " +
                 std::to_string(channel.stats().delivered) +
                 " disagrees with delivery log size " +
                 std::to_string(channel.delivered().size()));
    }
    for (std::uint64_t seq = 1; seq <= channel.sentCount(); ++seq) {
        if (channel.acked(seq) && channel.failed(seq)) {
            emit(shard, "swrel-exactly-once", at, 0, 0,
                 "seq=" + std::to_string(seq) +
                     " reported both acked and failed");
        }
    }
}

std::uint64_t
InvariantMonitor::violationCount() const
{
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
        total += shard.violationCount;
    return total;
}

const std::vector<Violation>&
InvariantMonitor::violations() const
{
    if (shards_.size() == 1)
        return shards_.front().violations;
    mergedViolations_.clear();
    for (const Shard& shard : shards_) {
        mergedViolations_.insert(mergedViolations_.end(),
                                 shard.violations.begin(),
                                 shard.violations.end());
    }
    return mergedViolations_;
}

std::uint64_t
InvariantMonitor::traceHash() const
{
    // One shard: the raw stream — byte-identical to the pre-sharding
    // monitor, so the repo's single-queue goldens stand. Several shards:
    // fold the per-island streams in island order.
    if (shards_.size() == 1)
        return shards_.front().hash;
    std::uint64_t hash = 14695981039346656037ull;
    for (const Shard& shard : shards_)
        hash = mix(hash, shard.hash);
    return hash;
}

std::uint64_t
InvariantMonitor::packetsObserved() const
{
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
        total += shard.packetsObserved;
    return total;
}

std::string
InvariantMonitor::report() const
{
    const std::uint64_t total = violationCount();
    std::string out = "invariant monitor: ";
    if (total == 0) {
        out += "clean (" + std::to_string(packetsObserved()) +
               " packets observed)\n";
        return out;
    }
    const std::vector<Violation>& stored = violations();
    out += std::to_string(total) + " violation(s)";
    if (total > stored.size())
        out += " (first " + std::to_string(stored.size()) + " shown)";
    out += "\n";
    for (const auto& v : stored)
        out += "  " + v.str() + "\n";
    return out;
}

} // namespace chaos
} // namespace ibsim
