/**
 * @file
 * Online invariant oracle for the full transport surface (RC/UC/UD).
 *
 * The chaos engine (fault_injector.hh) answers "can we provoke this fault
 * class?"; the monitor answers "did the transport stay correct while it
 * happened?". It taps the fabric at egress and ingress, the RNIC post
 * paths, and the completion queues, and checks the guarantees the
 * paper's experiments lean on — exactly-once completion per posted WR
 * (Sec. II: RC "guarantees lossless ordered delivery"), go-back-N
 * recovery staying inside the posted PSN window (Fig. 8), ACK/NAK
 * coherence, exactly-once atomics, and the fire-and-forget contracts of
 * UC/UD — emitting structured Violation reports instead of asserting.
 *
 * Invariants checked (every transport unless noted):
 *  P1 psn-monotonic       a QP's nextPsn never moves backwards across posts
 *  W1 fresh-once          a fresh (non-retransmitted) request PSN appears
 *                         on the wire at most once per flow
 *  W2 fresh-posted        fresh request PSNs lie inside the posted range
 *  W3 retrans-posted      RC: retransmitted PSNs lie inside the posted
 *                         range
 *  W4 ack-coherence       RC: ACK/NAK/response PSNs arriving at a
 *                         requester reference a PSN it actually posted
 *  W5 retrans-window      RC: retransmissions never fall below the
 *                         go-back-N window (the oldest incomplete WQE)
 *  C1 send-exactly-once   per (flow, wrId): send completions <= posts
 *  C2 recv-exactly-once   per (flow, wrId): recv completions <= posts
 *                         (a duplicate RC delivery would consume a second
 *                         RECV and trip this)
 *  F1 send-completion     finalCheck(): every posted send WR completed
 *     -missing            exactly once (drained-workload runs only).
 *                         For UC/UD — whose WRs complete at post — C1+F1
 *                         together are the per-packet completion contract.
 *  A1 atomic-replay       RC atomics are exactly-once: every AtomicResponse
 *     -value / -lost      a flow emits for one PSN carries the same
 *                         original value (a re-executing responder returns
 *                         a different one — "-value", at egress), and every
 *                         delivered duplicate atomic inside the responder's
 *                         executed range is answered from the replay cache
 *                         ("-lost", at finalCheck(): silence means the
 *                         cache lost a record it was required to hold)
 *  A2 atomic-             fresh (non-replayed) atomic responses serialize
 *     serialization       against overlapping READ response streams: an
 *                         atomic's response PSN exceeds every earlier fresh
 *                         data response, and no fresh READ data is emitted
 *                         at or below an already-answered atomic's PSN
 *  U1 ud-no-retransmit    a UD flow never marks a datagram as a
 *                         retransmission (fire-and-forget; PSN reuse on a
 *                         UD flow additionally trips W1)
 *  U3 ud-silent-drop      finalCheck(): datagrams delivered to a UD flow
 *                         reconcile exactly as successful RECV
 *                         completions plus the responder's counted drops
 *                         (QpStats::udDrops) — nothing falls through
 *                         silently. (Assumes the CQ is not under chaos
 *                         pressure: a lost completion is exactly the
 *                         kind of silent loss this flags.)
 *  V1 ud-verb / uc-verb   request opcodes match the service type: UD
 *                         carries SENDs only, UC carries SEND/WRITE only
 *  V2 ud-one-way /        UD/UC flows never emit response-class packets
 *     uc-one-way          (no ACK/NAK machinery exists for them)
 *  V3 uc-no-retransmit    a UC flow never marks a packet as retransmitted
 *  S1 swrel-exactly-once  SoftReliableChannel delivered each sequence
 *                         number at most once, and no message is both
 *                         acked and failed
 *  E1 error-qp-completion a QP in the Error state never produces a
 *                         *successful* completion (flush completions
 *                         drain legally; RcRequester pushes them before
 *                         the Error transition)
 *
 * QP recovery (rnic re-arm, QpContext::resetEpoch advancing): the PSN
 * stream restarts from zero, so on the first post/egress of a new epoch
 * the wire bookkeeping (W1 fresh-set, P1 anchor, A1/A2 atomic ledgers)
 * re-anchors; the completion ledgers (C1/C2/F1) deliberately survive —
 * a recovered QP re-delivering an already-acked WR still trips
 * send-exactly-once, which is the "recovery must not re-deliver" rule.
 * CM re-arm handshake packets (CmRearm/CmRearmAck) are hash-mixed but
 * excluded from request/response bookkeeping (they carry control-plane
 * epochs, not transport PSNs), and the ingress checks (W4, A1
 * must-answer) compare the packet's epoch with the destination QP's, so
 * a judgement never crosses a reset boundary.
 *
 * Packets carrying chaos provenance flags (duplicated / corrupted /
 * forged — see net::Packet) are recognized as injected noise and excluded
 * from wire bookkeeping, so the oracle judges endpoint behaviour, not the
 * injector's. The egress tap fires synchronously inside Fabric::send(),
 * so wire checks observe the endpoint's emission order even when the
 * injector reorders arrivals. The responder-role checks A1-value and A2
 * key on the emitting responder's egress order; U3 reconciles at
 * finalCheck().
 *
 * The two checks that read the *destination* QP — W4 (the requester's
 * nextPsn) and A1's must-answer ledger (the responder's expectedPsn) —
 * run from the fabric's ingress tap, on the destination island, after
 * the Down-port gate and before the delivery event. Both counters only
 * advance, so a verdict reached before arrival is the invariant's
 * arrival-time meaning; W4 reports the packet's egress time (sentAt).
 * A1 books a duplicate from the responder's state alone. It does not
 * consult the requester flow's late-attach snapshot (that would be a
 * cross-island read), and does not need to: the answer is emitted after
 * arrival, so a monitor watching at arrival sees both the duplicate and
 * its answer.
 *
 * Multi-node topologies: watchAll(cluster) attaches every QP of every
 * node, whatever its transport — the one-call attach for >2-node meshes
 * flapping under a chaos::Topology schedule (cluster/topology.hh).
 *
 * State layout: all per-packet and per-post state is flat. Each shard
 * keeps its flows in a vector reached through an rnic::FlatKeyMap keyed
 * by (lid << 32) | qpn. A flow's fresh-PSN set is a PsnRunSet (one
 * inline run for an in-order stream), its send and recv ledgers map
 * every 64-bit wrId to {posted, completed} in a FlatKeyMap that
 * allocates on first use, and its atomic ledgers live in a side struct
 * allocated when the flow first records an atomic. finalCheck() visits
 * flows in (lid, qpn) order, so reports do not depend on watch order.
 *
 * Sharding: the monitor keeps one shard per fabric lane (island). Each
 * shard owns the flows of its island's LIDs, its own violation list and
 * its own FNV hash stream, written only by the worker executing that
 * island — no locks on the hot path. Egress checks touch the sending
 * island's shard; ingress checks touch the destination island's, and a
 * cross-island packet reaches the ingress tap when the destination
 * drains the fabric's channels, in (arrival, wire-id) order — the same
 * order at any worker count. A cross-island packet still in flight when
 * a run stops is judged when it arrives, not at the stop. With one lane
 * (single-queue mode) every packet reaches the ingress tap inside
 * send(), right after the egress tap, and traceHash() is the one
 * shard's stream.
 */

#ifndef IBSIM_CHAOS_INVARIANT_MONITOR_HH
#define IBSIM_CHAOS_INVARIANT_MONITOR_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hh"
#include "rnic/flat_table.hh"
#include "rnic/qp_context.hh"
#include "rnic/rnic.hh"
#include "simcore/tap_list.hh"
#include "simcore/time.hh"

namespace ibsim {

class Cluster;

namespace swrel {
class SoftReliableChannel;
} // namespace swrel

namespace chaos {

/**
 * A set of 24-bit PSNs kept as sorted, disjoint, non-adjacent runs
 * [first, last]. It has the semantics of std::set<uint32_t> for insert(),
 * contains() and clear(), but a flow that sends its PSNs in order holds
 * one run however long it runs, and the 24-bit wrap (0xffffff, then 0)
 * adds a second. One run is stored inline, so the common flow never
 * allocates; out-of-order PSNs spill into a sorted vector.
 */
class PsnRunSet
{
  public:
    /** Insert @p psn (< 2^24); false if it was already present. */
    bool insert(std::uint32_t psn);

    bool contains(std::uint32_t psn) const;

    /** Forget every PSN (keeps any spill storage for reuse). */
    void clear();

    /** Disjoint runs held (tests). */
    std::size_t
    runCount() const
    {
        return spill_.empty() ? inlineCount_ : spill_.size();
    }

  private:
    struct Run
    {
        std::uint32_t first;
        std::uint32_t last;
    };

    Run* runs() { return spill_.empty() ? &inline_ : spill_.data(); }
    const Run* runs() const
    {
        return spill_.empty() ? &inline_ : spill_.data();
    }

    /** Index of the last run starting at or below @p psn, or -1. */
    std::ptrdiff_t runAtOrBelow(std::uint32_t psn) const;

    Run inline_{0, 0};
    std::uint32_t inlineCount_ = 0;  ///< 0 or 1 while spill_ is empty
    std::uint32_t hint_ = 0;         ///< run the last insert touched
    std::vector<Run> spill_;         ///< every run, once there are two
};

/** One invariant violation (structured, render with str()). */
struct Violation
{
    std::string invariant;  ///< e.g. "fresh-once", "send-exactly-once"
    Time at;
    std::uint16_t lid = 0;
    std::uint32_t qpn = 0;
    std::string detail;

    std::string str() const;
};

/**
 * The oracle. Construct over a fabric, watch() the QPs under test, run
 * the workload, then consult violations() / report(); call finalCheck()
 * first if the workload is expected to have fully drained.
 */
class InvariantMonitor
{
  public:
    /**
     * Installs the egress and ingress taps on @p fabric. When the fabric
     * is in island mode the monitor shards its state per island
     * (construct it after every node exists).
     */
    explicit InvariantMonitor(net::Fabric& fabric);

    ~InvariantMonitor();

    InvariantMonitor(const InvariantMonitor&) = delete;
    InvariantMonitor& operator=(const InvariantMonitor&) = delete;

    /**
     * Watch one QP: wire checks for its flow, post/completion accounting
     * via the RNIC and CQ taps (installed once per RNIC / CQ).
     *
     * Late attach is supported: watching a QP that already carried
     * traffic snapshots its nextPsn, and wire/completion events that can
     * only be judged with pre-attach knowledge (fresh transmissions of
     * pre-attach PSNs, completions of pre-attach WRs) are excluded from
     * bookkeeping instead of reported as violations. This lets
     * long-running services be audited mid-run.
     */
    void watch(rnic::Rnic& rnic, rnic::QpContext& qp);

    /**
     * Watch every QP on every node of @p cluster — the one-call attach
     * for cluster-scale runs (e.g. auditing the 4096-QP flood-capacity
     * bench). Safe to call mid-run (late attach per QP, see watch())
     * and to call repeatedly as QPs are added.
     */
    void watchAll(Cluster& cluster);

    /**
     * End-of-run check for drained workloads: every posted send WR on
     * every watched flow completed exactly once (F1). Not called from
     * wire taps because in-flight work is not a violation.
     */
    void finalCheck();

    /** S1: exactly-once delivery accounting of a soft-reliable channel. */
    void checkSwrel(const swrel::SoftReliableChannel& channel);

    /** Total violations detected (including any beyond the stored cap). */
    std::uint64_t violationCount() const;

    bool clean() const { return violationCount() == 0; }

    /**
     * Stored violations (first storedCap per shard per run). Island
     * mode concatenates shards in island order — deterministic for a
     * fixed seed at any worker count.
     */
    const std::vector<Violation>& violations() const;

    /** Multi-line human-readable report (stable across identical runs). */
    std::string report() const;

    /**
     * FNV-1a hash over every packet observed at egress (fields + drop
     * flag, in tap order). Two runs with the same seeds must agree.
     * Several lanes fold the per-island hash streams in island order, so
     * the value is independent of the worker count (but is not the
     * single-queue mode's hash — island mode is its own deterministic
     * schedule).
     */
    std::uint64_t traceHash() const;

    /** Packets observed at the egress tap. */
    std::uint64_t packetsObserved() const;

  private:
    /** C1/C2/F1: posts and completions of one wrId on one flow. */
    struct WrCount
    {
        std::uint64_t posted = 0;
        std::uint64_t completed = 0;
    };

    /** A1 must-answer ledger entry: one duplicate atomic PSN. */
    struct AtomicDup
    {
        std::uint32_t psn;
        std::uint64_t mustAnswer = 0;
        std::uint64_t answered = 0;
    };

    /** A1 value ledger entry: the first response value seen per PSN. */
    struct AtomicPayload
    {
        std::uint32_t psn;
        std::vector<std::uint8_t> payload;
    };

    /**
     * A1 responder-role state, allocated when a flow first records an
     * atomic. Both ledgers are sorted by PSN. dups counts delivered
     * duplicate atomics inside the executed range (recorded at request
     * egress) and the answers they drew, judged at finalCheck();
     * payloads pins the first response value seen per PSN.
     */
    struct AtomicLedger
    {
        std::vector<AtomicDup> dups;
        std::vector<AtomicPayload> payloads;
    };

    /** Hot fields first: the egress, post and completion taps read the
     * head of the struct on every packet, post and completion. */
    struct FlowState
    {
        rnic::QpContext* qp = nullptr;

        /** P1 state: qp->nextPsn observed at the previous post. */
        std::uint32_t lastNextPsn = 0;

        /**
         * Late-attach state: nextPsn snapshotted at watch() time.
         * PSNs below attachPsn were posted unobserved, so the fresh-wire
         * checks skip them, and completions of WRs never seen posted are
         * ignored (lateAttach: the QP had prior traffic at watch()).
         */
        std::uint32_t attachPsn = 0;

        /** Reset epoch the wire bookkeeping is anchored to. */
        std::uint16_t lastEpoch = 0;

        bool anyPostSeen = false;
        bool lateAttach = false;

        /** Injector corrupted a replay answer in flight: the per-PSN
         * answered ledger is no longer attributable, A1-lost stands
         * down for this flow (value/serialization checks keep running). */
        bool atomicAnswerAttributionLost = false;

        /** @{ A2 state: PSN of the last fresh (non-replayed) data-bearing
         * response / fresh atomic response this flow emitted. */
        bool anyFreshData = false;
        bool anyFreshAtomic = false;
        std::uint32_t lastFreshDataPsn = 0;
        std::uint32_t lastFreshAtomicPsn = 0;
        /** @} */

        /** @{ C1/C2/F1 accounting; U3: successful RECV completions
         * (post-attach). */
        std::uint64_t sendPosted = 0;
        std::uint64_t sendCompleted = 0;
        std::uint64_t recvLanded = 0;
        rnic::FlatKeyMap<WrCount, std::uint64_t> sendWrs;
        rnic::FlatKeyMap<WrCount, std::uint64_t> recvWrs;
        /** @} */

        /** W1 state: fresh request PSNs seen on the wire. */
        PsnRunSet freshSeen;

        /** A1 ledgers; null until the flow records an atomic. */
        std::unique_ptr<AtomicLedger> atomics;

        std::uint16_t lid = 0;
        std::uint32_t qpn = 0;
    };

    /**
     * Per-island monitor state: the flows of this island's LIDs, the
     * island's violation list and hash stream.
     */
    struct Shard
    {
        /** Flows in watch order; flowIndex maps (lid << 32) | qpn to
         * the flow's index. */
        std::vector<FlowState> flows;
        rnic::FlatKeyMap<std::uint32_t, std::uint64_t> flowIndex;
        /** False once watch() appended a flow below the last one; then
         * finalCheck() sorts before it reports. */
        bool flowsSorted = true;
        std::vector<Violation> violations;
        std::uint64_t violationCount = 0;
        std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
        std::uint64_t packetsObserved = 0;
    };

    void onEgress(const net::Packet& pkt, bool dropped);
    void onRequestEgress(Shard& shard, const net::Packet& pkt);
    void onResponseEgress(Shard& shard, const net::Packet& pkt);

    /** W4 and A1 must-answer, on the destination island (see above). */
    void onIngress(const net::Packet& pkt);
    void onSendPost(std::uint16_t lid, const rnic::QpContext& qp,
                    const rnic::SendWqe& wqe);
    void onRecvPost(std::uint16_t lid, const rnic::QpContext& qp,
                    const rnic::RecvWqe& wqe);
    void onCompletion(std::uint16_t lid, const verbs::WorkCompletion& wc);

    /** The shard owning @p lid's flows. */
    Shard& shardOf(std::uint16_t lid);

    /** The shard of the island currently executing (egress/delivery). */
    Shard& egressShard();

    FlowState* flow(std::uint16_t lid, std::uint32_t qpn);

    void emit(Shard& shard, const std::string& invariant, Time at,
              std::uint16_t lid, std::uint32_t qpn,
              const std::string& detail);

    /**
     * Re-anchor a flow's wire bookkeeping when its QP's resetEpoch moved
     * (recovery restarted the PSN stream). Completion ledgers survive.
     */
    void syncEpoch(FlowState& st);

    /** A1: credit an answer to @p psn if it is a recorded duplicate. */
    static void creditAtomicAnswer(FlowState& st, std::uint32_t psn);

    static constexpr std::size_t storedCap = 64;

    net::Fabric& fabric_;
    /** One per fabric lane. A deque keeps shard addresses stable (not
     * that they move — sized once). */
    std::deque<Shard> shards_;
    TapId fabricTap_ = 0;
    TapId ingressTap_ = 0;
    /** Taps installed per RNIC (send post, recv post) and per CQ, taken
     * back by the destructor. Consulted by watch() only. */
    std::map<rnic::Rnic*, std::pair<TapId, TapId>> rnicTaps_;
    std::map<verbs::CompletionQueue*, TapId> cqTaps_;
    /** Merged shard views, rebuilt on demand (accessors are cold). */
    mutable std::vector<Violation> mergedViolations_;
};

} // namespace chaos
} // namespace ibsim

#endif // IBSIM_CHAOS_INVARIANT_MONITOR_HH
