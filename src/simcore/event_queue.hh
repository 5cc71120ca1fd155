/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue owns virtual time for a whole simulated cluster.
 * Components schedule callbacks at absolute times; the queue executes them
 * in (time, insertion-order) order, which makes every run deterministic for
 * a fixed seed. Events can be cancelled through the EventHandle returned at
 * scheduling time, which is how retransmission timers are disarmed.
 *
 * Internals (see DESIGN.md, "Event kernel internals"): events live in a
 * generation-counted node pool and are indexed by a hierarchical timer
 * wheel (4 levels x 64 slots, 256 ns level-0 ticks, ~4.3 s horizon) for
 * near-future work, with a binary heap as the overflow tier for far-future
 * events (RC transport timeouts). A small (time, seq) "due" heap merges
 * wheel slots, overflow arrivals and same-window schedules so that
 * execution order is exactly the order the old single-heap kernel
 * produced. schedule() and cancel() are O(1) and allocation-free in steady
 * state; callbacks with captures up to Callback's inline capacity never
 * touch the allocator.
 */

#ifndef IBSIM_SIMCORE_EVENT_QUEUE_HH
#define IBSIM_SIMCORE_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/inline_function.hh"
#include "simcore/time.hh"

namespace ibsim {

/**
 * Handle to a scheduled event, used for cancellation.
 *
 * Handles are cheap value types; cancelling an already-executed or
 * already-cancelled event is a harmless no-op (and reports false). The id
 * packs a pool slot index with that slot's generation counter, so a stale
 * handle can never alias a later event that reused the slot.
 */
class EventHandle
{
  public:
    EventHandle() : id_(0) {}

    bool valid() const { return id_ != 0; }

  private:
    friend class EventQueue;
    explicit EventHandle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_;
};

/**
 * The discrete-event queue and virtual clock.
 */
class EventQueue
{
  public:
    /**
     * Scheduled callback type. The inline capacity covers every capture on
     * the simulator's hot paths (a few pointers and integers); larger
     * captures still work through a heap box.
     */
    using Callback = InlineFunction<48>;

    EventQueue()
    {
        for (auto& level : slots_)
            level.fill(nil);
    }

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current virtual time. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when.
     *
     * @p when must not be in the past. Events scheduled for the same time
     * execute in insertion order.
     */
    EventHandle schedule(Time when, Callback cb);

    /** Schedule @p cb after a delay from now. */
    EventHandle
    scheduleAfter(Time delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Cancel a scheduled event in O(1).
     *
     * @return true if the event was pending and is now cancelled; false
     * for invalid, already-cancelled or already-executed handles.
     */
    bool cancel(EventHandle h);

    /**
     * Whether @p h names an event that is still scheduled: false for
     * invalid, cancelled or executed handles (an executing event's own
     * handle already reads false). The one place that knows whether an
     * event is pending; callers keep handles, never a mirror flag.
     * Inline: the RC send engine asks on every pump().
     */
    bool
    pending(EventHandle h) const
    {
        // A stale handle (executed, cancelled, or its slot reused) fails
        // the generation or state check.
        const std::uint32_t idx =
            static_cast<std::uint32_t>(h.id_ & 0xffffffffu) - 1;
        const std::uint32_t gen = static_cast<std::uint32_t>(h.id_ >> 32);
        return h.valid() && idx < pool_.size() && pool_[idx].gen == gen &&
               pool_[idx].state == NodeState::Pending;
    }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return pendingCount_; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return executedCount_; }

    /**
     * Run until the queue is empty or @p limit is reached.
     *
     * The clock is left at the time of the last executed event (or at
     * @p limit when the limit cuts the run short).
     *
     * @return true if the queue drained, false if the limit was hit first.
     */
    bool run(Time limit = Time::max());

    /**
     * Run until @p pred returns true, checking after every event.
     *
     * @return true if the predicate was satisfied; false if the queue
     * drained or the limit was hit first.
     */
    bool runUntil(const std::function<bool()>& pred,
                  Time limit = Time::max());

    /**
     * Advance the clock to now() + delta, executing everything due.
     *
     * Unlike run(), the clock always ends exactly at the target time, which
     * models a host thread sleeping through a fixed interval (the
     * micro-benchmark's usleep).
     */
    void advance(Time delta);

    /**
     * Time of the earliest pending event, or Time::max() when the queue
     * is empty. Non-const: peeking may cascade wheel slots into the due
     * heap (the work run() would do anyway). Used by the ShardedKernel
     * driver to size conservative-lookahead windows.
     */
    Time nextEventTime();

    /**
     * Force the clock forward to @p t without executing anything. Only
     * legal when no pending event is due at or before @p t; the sharded
     * driver uses it to line island clocks up at window barriers.
     */
    void
    syncClock(Time t)
    {
        if (t > now_)
            now_ = t;
    }

    /**
     * Kernel introspection for tests and capacity planning. All counts are
     * O(1) reads of maintained state.
     */
    struct KernelStats
    {
        std::size_t poolNodes;      ///< node slots ever allocated
        std::size_t freeNodes;      ///< node slots on the free list
        std::size_t wheelNodes;     ///< events parked in wheel slots
        std::size_t dueNodes;       ///< events in the due heap
        std::size_t overflowNodes;  ///< events in the overflow heap
        std::uint64_t cancelledTotal;  ///< successful cancel() calls
    };

    KernelStats kernelStats() const;

  private:
    /** @{ Wheel geometry. */
    static constexpr int tickBits = 8;   ///< 256 ns level-0 granularity
    static constexpr int slotBits = 6;   ///< 64 slots per level
    static constexpr int levels = 4;     ///< horizon = 256ns << 24 ~ 4.3 s
    static constexpr std::uint32_t slotsPerLevel = 1u << slotBits;
    /** @} */

    static constexpr std::uint32_t nil = 0xffffffffu;

    enum class NodeState : std::uint8_t { Free, Pending, Cancelled };

    /** Where a live node is currently indexed (for cancel accounting). */
    enum class NodeHome : std::uint8_t { Due, Wheel, Overflow };

    struct Node
    {
        Time when;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        std::uint32_t next = nil;  ///< slot chain / free-list link
        NodeState state = NodeState::Free;
        NodeHome home = NodeHome::Due;
        Callback cb;
    };

    /** Ticks (256 ns units) of an absolute time. */
    static std::uint64_t
    tickOf(Time t)
    {
        return static_cast<std::uint64_t>(t.toNs()) >> tickBits;
    }

    std::uint32_t allocNode();
    void freeNode(std::uint32_t idx);

    /** Strict (when, seq) order between two pool nodes. */
    bool earlier(std::uint32_t a, std::uint32_t b) const;

    /** @{ Binary min-heaps of node indices ordered by earlier(). */
    void heapPush(std::vector<std::uint32_t>& heap, std::uint32_t idx);
    std::uint32_t heapPop(std::vector<std::uint32_t>& heap);
    /** @} */

    /** File a node under the due heap, a wheel slot or the overflow tier. */
    void placeNode(std::uint32_t idx);

    /** Drop cancelled overflow entries once they dominate the tier. */
    void sweepOverflow();

    /**
     * Advance the wheel until the due heap holds the earliest pending
     * events (cascading upper slots and draining the overflow tier).
     *
     * @return false when no events remain anywhere.
     */
    bool refillDue();

    /**
     * Index of the next pending event, kept on top of the due heap, or
     * nil when the queue is empty. Skips and reclaims cancelled nodes.
     */
    std::uint32_t nextRunnable();

    /** Pop @p idx off the due heap top and execute it. */
    void executeNode(std::uint32_t idx);

    std::vector<Node> pool_;
    std::uint32_t freeHead_ = nil;
    std::size_t freeCount_ = 0;

    /** @{ The three tiers. */
    std::array<std::array<std::uint32_t, slotsPerLevel>, levels> slots_{};
    std::array<std::uint64_t, levels> occupied_{};  ///< slot bitmaps
    std::size_t wheelCount_ = 0;
    std::vector<std::uint32_t> due_;
    std::vector<std::uint32_t> overflow_;
    std::size_t overflowCancelled_ = 0;
    /** @} */

    /** Wheel read position in ticks; trails/leads now_ independently. */
    std::uint64_t wheelTick_ = 0;

    Time now_;
    std::uint64_t nextSeq_ = 1;
    std::size_t pendingCount_ = 0;
    std::uint64_t executedCount_ = 0;
    std::uint64_t cancelledCount_ = 0;
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_EVENT_QUEUE_HH
