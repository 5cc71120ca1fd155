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
 * generation-counted node pool and are ordered by one binary min-heap of
 * (when, seq, index) entries, so execution order is exactly (time,
 * insertion order). cancel() is O(1): it marks the node, and the entry is
 * freed when it reaches the top or when cancelled entries dominate the
 * heap and it is compacted. schedule() is O(log n) and allocation-free in
 * steady state; callbacks with captures up to Callback's inline capacity
 * never touch the allocator.
 */

#ifndef IBSIM_SIMCORE_EVENT_QUEUE_HH
#define IBSIM_SIMCORE_EVENT_QUEUE_HH

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

    EventQueue() = default;

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
     * is empty. Non-const: peeking frees cancelled entries off the heap
     * top (the work run() would do anyway). Used by the ShardedKernel
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
        std::size_t heapNodes;      ///< heap entries, cancelled included
        std::uint64_t cancelledTotal;  ///< successful cancel() calls
    };

    KernelStats kernelStats() const;

  private:
    static constexpr std::uint32_t nil = 0xffffffffu;

    enum class NodeState : std::uint8_t { Free, Pending, Cancelled };

    struct Node
    {
        std::uint32_t gen = 0;
        std::uint32_t next = nil;  ///< free-list link
        NodeState state = NodeState::Free;
        Callback cb;
    };

    /**
     * One heap entry. The ordering key lives inline, so sifting never
     * reads the node pool; seq is unique, so (when, seq) is a strict
     * total order and every heap layout pops the same sequence.
     */
    struct Entry
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    static bool
    earlier(const Entry& a, const Entry& b)
    {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }

    std::uint32_t allocNode();
    void freeNode(std::uint32_t idx);

    /** @{ Binary min-heap on heap_ ordered by earlier(). */
    void heapPush(const Entry& e);
    Entry heapPop();
    void siftDown(std::size_t hole, Entry e);
    /** @} */

    /** Drop every cancelled entry and rebuild the heap in O(n). */
    void compact();

    /**
     * Free cancelled entries off the heap top.
     *
     * @return false when no pending event remains.
     */
    bool skipCancelled();

    /** Pop the heap top and execute it. */
    void executeTop();

    std::vector<Node> pool_;
    std::uint32_t freeHead_ = nil;

    /**
     * Pending and cancelled events; cancelled entries number
     * heap_.size() - pendingCount_.
     */
    std::vector<Entry> heap_;

    Time now_;
    std::uint64_t nextSeq_ = 1;
    std::size_t pendingCount_ = 0;
    std::uint64_t executedCount_ = 0;
    std::uint64_t cancelledCount_ = 0;
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_EVENT_QUEUE_HH
