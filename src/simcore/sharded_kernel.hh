/**
 * @file
 * Conservative-lookahead parallel driver over per-island EventQueues.
 *
 * A ShardedKernel partitions a simulation into islands — in the cluster
 * layer one island per node (or per node *plane* when a hot node is
 * split) — each owning a private EventQueue. Cross-island work travels
 * through per-(src, dst) channels that the kernel's one BarrierAgent
 * (the Fabric) drains in canonical (timestamp, wire-id) order, which
 * makes the execution deterministic for a fixed seed regardless of the
 * worker count.
 *
 * Synchronization is pairwise, not global. Every island publishes a
 * channel clock — the virtual time it has fully executed and flushed
 * through — and an island only blocks on the minimum clock of its
 * *in-neighbors* in the declared edge graph (declareEdge(); the cluster
 * layer declares an edge per QP connection, and a UD-capable island
 * falls back to dense edges because UD datagrams name their destination
 * per work request). The lookahead L is the minimum virtual time any
 * cross-island influence needs (link latency + per-packet overhead), so
 * an island whose in-neighbors have published clock c may safely execute
 * through c + L: everything its neighbors still owe it lands strictly
 * later. Windows are aligned to an absolute grid of L-sized slots, which
 * keeps each island's flush/run step sequence a pure function of the
 * virtual state — the determinism backbone (DESIGN.md §12.b).
 *
 * Execution is batched into *rounds* of grid windows. Inside a round
 * islands run fully asynchronously under the channel-clock constraint;
 * between rounds the kernel quiesces once to check runUntil()
 * predicates, detect drain, and jump over idle gaps to the globally
 * earliest pending work. A round always runs to its limit. Worker w
 * owns the fixed island block [w*n/jobs, (w+1)*n/jobs) for the kernel's
 * lifetime and, each round, scans its block in index order, stepping
 * every island that is not yet round-done; it yields after a pass that
 * advanced nothing (it is waiting on another worker's clocks) and
 * returns once its whole block is round-done. Contiguous blocks keep
 * neighbouring islands — a client and its server, a node and its
 * planes — on one worker, so in the cluster workloads nearly every edge
 * stays inside one block. The block
 * assignment only decides *who* executes; *what* each island executes
 * per window is schedule-independent, so trace hashes, stats and oracle
 * verdicts are bit-identical at any jobs count. jobs = 1 is the
 * one-block case, run inline with no threads — the "sequential"
 * reference the differential tests compare against.
 *
 * Round length adapts (DESIGN.md §12.c): runUntil() rounds are always
 * kBaseWindows long — the round boundary is its stop granularity —
 * while predicate-free runs double the length per round up to
 * kMaxAdaptiveWindows, purely from simulation-visible state, so long
 * drains quiesce logarithmically rather than linearly often.
 *
 * A kernel with exactly one island skips all of the above: run(),
 * runUntil() and advance() call that island's EventQueue directly
 * (predicates are polled after every event, and no worker or round
 * ever exists). This is how the cluster's single-queue mode
 * runs — one kernel, two partitions.
 *
 * What the kernel deliberately does not do: share any RNG, wire-id
 * counter or packet pool between islands (the cluster forks node RNGs,
 * the fabric wire ids and pools, per island), or interleave same-timestamp events across islands the way a
 * single global queue would. The one-island partition and the
 * island-per-node partition are therefore distinct deterministic
 * schedules with their own goldens.
 */

#ifndef IBSIM_SIMCORE_SHARDED_KERNEL_HH
#define IBSIM_SIMCORE_SHARDED_KERNEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/time.hh"

namespace ibsim {

/**
 * Parallel conservative-lookahead driver over N island EventQueues.
 */
class ShardedKernel
{
  public:
    /**
     * The one component holding the cross-island channels (in a
     * cluster, the fabric).
     *
     * flushInbound(i, horizon) is called by the worker currently
     * executing island i immediately before each of i's windows, with
     * `horizon` = the window's run limit. The agent must inject every
     * buffered item whose earliest *effect* (first event it schedules)
     * is <= horizon — the channel-clock protocol guarantees all such
     * items are already visible — in the canonical (time, wire-id)
     * merge order, and return the number of items consumed. A quiesced
     * kernel never holds an item with effect <= its clock: the island
     * that owns it flushed it before running the window covering it.
     */
    class BarrierAgent
    {
      public:
        virtual ~BarrierAgent() = default;

        /** Inject items queued for @p island with effect <= horizon. */
        virtual std::uint64_t flushInbound(std::size_t island,
                                           Time horizon) = 0;

        /**
         * Earliest effect time buffered for @p island, Time::max() when
         * none. The kernel uses this to pick windows and detect drain.
         */
        virtual Time inboundEarliest(std::size_t) { return Time::max(); }

        /** Buffered items for @p island (for pending()). */
        virtual std::size_t inboundPending(std::size_t) { return 0; }
    };

    /**
     * @param lookahead minimum cross-island influence latency (> 0)
     * @param jobs worker count; clamped to the island count at startup,
     *        1 = run the same round/window algorithm inline, no threads
     */
    ShardedKernel(Time lookahead, unsigned jobs);
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel&) = delete;
    ShardedKernel& operator=(const ShardedKernel&) = delete;

    /** Add an island (before the first run). Returns its index. */
    std::size_t addIsland();

    EventQueue& island(std::size_t i) { return *islands_[i].queue; }
    std::size_t islandCount() const { return islands_.size(); }

    /** Effective worker count (clamped to the island count once
     * running; always 1 with one island). */
    unsigned jobs() const { return islands_.size() == 1 ? 1u : jobs_; }

    Time lookahead() const { return lookahead_; }

    /** Round-synchronized virtual time (the sole island's clock when
     * there is one island). */
    Time
    now() const
    {
        const EventQueue* q = soleQueue();
        return q != nullptr ? q->now() : now_;
    }

    /** @{ The cross-island edge graph driving the channel clocks.
     *
     * declareEdge(src, dst) records that src can influence dst
     * (packets); dst then blocks on src's clock. declareDense(i)
     * connects i to every island both ways — including islands added
     * *after* the call — the sound fallback for islands whose
     * destinations are not known up front (UD). While no
     * edge has ever been declared the kernel assumes a dense graph, so a
     * raw kernel user who never declares edges gets conservative (and
     * correct) all-pairs synchronization. Edges are normally declared at
     * setup; declaring one mid-run is allowed only while the kernel is
     * quiesced (between run()/advance() calls). */
    void declareEdge(std::size_t src, std::size_t dst);
    void declareDense(std::size_t island);
    bool hasEdge(std::size_t src, std::size_t dst) const;

    /**
     * In-neighbor islands of @p i — the only islands whose channels can
     * hold work for i, so the agent may restrict its per-window channel
     * scans to this list instead of probing every island. Rebuilt when
     * the kernel starts and on quiesced edge declarations; empty before
     * the first run.
     */
    const std::vector<std::uint32_t>&
    inNeighbors(std::size_t i) const
    {
        return islands_[i].inNbr;
    }
    /** @} */

    /** @{ Logical islands. Splitting a hot node over several islands
     * (cluster addNodePlanes()) maps its planes to one *logical* island
     * so KernelStats attributes work to the node, not to whichever
     * worker or plane executed it. Defaults to identity. */
    void setLogicalIsland(std::size_t island, std::size_t logical);
    std::size_t logicalIslandCount() const;
    /** @} */

    /** Round length of runUntil() rounds, in grid windows. */
    static constexpr unsigned kBaseWindows = 16;

    /** Adaptive round-length cap for predicate-free runs. */
    static constexpr unsigned kMaxAdaptiveWindows = 256;

    /** Install the kernel's one channel holder (nullptr removes it). */
    void setBarrierAgent(BarrierAgent* agent);

    /**
     * Run until every island drains (and all channels are empty) or
     * @p limit is reached. Mirrors EventQueue::run(): events at exactly
     * @p limit execute; on a limit cut every island clock is left at
     * @p limit. @return true if the simulation drained.
     */
    bool run(Time limit = Time::max());

    /**
     * Run until @p pred holds, checking at every round boundary (the
     * kernel quiesces once per kBaseWindows grid windows; the
     * predicate may read any cross-island state there) — after every
     * event with one island.
     * @return true if the predicate was satisfied.
     */
    bool runUntil(const std::function<bool()>& pred,
                  Time limit = Time::max());

    /** Advance all islands to now() + delta; clocks end exactly there. */
    void advance(Time delta);

    /** Total events executed across all islands. */
    std::uint64_t executed() const;

    /** Pending events across all islands (incl. buffered parcels). */
    std::size_t pending() const;

    /**
     * Sharding observability: round/window counts, channel traffic, the
     * per-logical-island event-count spread (imbalance is what caps the
     * parallel speedup), and scheduler behaviour. maxClockLagNs and
     * workerBusyFraction describe the *schedule*, which is
     * timing-dependent — they are not part of the deterministic surface
     * the differential tests compare (roundsSkipped is deterministic).
     */
    struct KernelStats
    {
        std::uint64_t barriers = 0;        ///< round quiesce points
        std::uint64_t windows = 0;         ///< island-windows executed
        std::uint64_t channelParcels = 0;  ///< cross-island items flushed
        /** Always 0: islands never change workers. Kept because the
         * perfbench driver still reports it as simcore.steals. */
        std::uint64_t steals = 0;
        std::uint64_t maxClockLagNs = 0;   ///< worst blocked-island lag
        std::uint64_t roundsSkipped = 0;   ///< quiesces adaptive rounds saved
        std::vector<std::uint64_t> executedPerIsland;  ///< logical islands
        std::uint64_t maxIslandExecuted = 0;
        std::uint64_t minIslandExecuted = 0;
        std::vector<double> workerBusyFraction;  ///< per worker
    };

    KernelStats kernelStats() const;

  private:
    /** Outcome of one attempt to advance an island inside a round. */
    enum class Step : std::uint8_t { Advanced, Blocked, RoundDone };

    /**
     * Per-island execution state. done is the published channel clock,
     * read by the workers of the out-neighbors; every other field
     * belongs to the worker whose block holds the island. Islands sit
     * side by side in islands_; the trailing pad keeps one island's hot
     * fields off its neighbour's cache lines. (Padding, not alignas:
     * every single-queue cluster builds a one-island kernel, and
     * repeated over-aligned allocations fragment the heap.)
     */
    struct Island
    {
        std::unique_ptr<EventQueue> queue;
        std::atomic<std::int64_t> done{0};
        bool roundDone = false;
        std::vector<std::uint32_t> inNbr;  ///< in-neighbor island indices
        std::uint64_t windows = 0;       ///< windows executed
        std::uint64_t parcels = 0;       ///< items flushed
        std::uint64_t maxLagNs = 0;      ///< worst blocked lag
        char pad[64];
    };

    /** Per-worker wall-clock accounting (observability only). */
    struct alignas(64) Worker
    {
        std::thread thread;
        std::uint64_t busyNs = 0;
        std::uint64_t totalNs = 0;
    };

    /** The island's queue when there is exactly one island, else null. */
    EventQueue* soleQueue() const;

    /**
     * The round loop shared by run()/runUntil()/advance().
     * @return true when drained, false when the limit cut the run.
     */
    bool runCore(Time limit, const std::function<bool()>* pred,
                 bool* pred_hit);

    /** Execute one round up to @p round_limit across all workers. */
    void dispatchRound(Time init_done, Time round_limit);

    /** One worker's round: scan its island block in order until every
     * island in it is round-done. */
    void workerRound(unsigned worker);

    /** Advance island @p i as far as the channel clocks allow. */
    Step stepIsland(std::size_t i, Time round_limit);

    /** Safe horizon of island @p i: min in-neighbor clock + lookahead. */
    Time safeHorizon(const Island& is) const;

    /** Earliest buffered inbound effect for island @p i. */
    Time inboundEarliest(std::size_t i) const;

    void workerLoop(unsigned worker);

    /** Spawn the worker pool on first use (islands are final by then). */
    void startWorkers();

    /** Rebuild every island's in-neighbor list from the edge matrix. */
    void rebuildNeighbors();

    /** Grow the edge matrix to the island count, preserving entries. */
    void growEdges();

    /** Whether @p island was declared dense (edges to every island). */
    bool isDense(std::size_t island) const;

    /** Earliest pending work over all islands and channels (quiesced). */
    Time earliestPending() const;

    /** Line every island clock up at @p t (t >= every island's now). */
    void syncClocks(Time t);

    /** End of the grid window containing @p t (multiples of lookahead). */
    Time gridEnd(Time t) const;

    Time lookahead_;
    unsigned jobs_;
    std::deque<Island> islands_;
    BarrierAgent* agent_ = nullptr;
    Time now_;
    bool started_ = false;

    /** @{ Edge graph. Dense until the first declareEdge()/declareDense(). */
    std::vector<std::vector<std::uint8_t>> edges_;  ///< [src][dst]
    std::vector<std::uint8_t> dense_;  ///< islands with all-pairs edges
    bool anyEdgeDeclared_ = false;
    /** @} */

    std::vector<std::size_t> logicalOf_;

    /** @{ Stats (coordinator-written or per-island by its executor). */
    std::uint64_t rounds_ = 0;
    std::uint64_t roundsSkipped_ = 0;  ///< coordinator-written
    /** @} */

    /**
     * @{ Worker pool protocol. The coordinator resets the per-island
     * round state, publishes the round with a release increment of
     * epoch_, participates as worker 0, then waits for every worker to
     * park (outstanding_ == 0). Workers wake on epoch_, step their block
     * until every island in it reports roundDone, then park. The only
     * state shared between workers inside a round is the island clocks
     * (done, release/acquire) and the agent's channels.
     */
    std::vector<Worker> workers_;  ///< sized when the workers start
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> outstanding_{0};
    std::atomic<bool> exit_{false};
    Time roundLimit_;
    /** @} */
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_SHARDED_KERNEL_HH
