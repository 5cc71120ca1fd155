#include "simcore/event_queue.hh"

#include <cassert>

namespace ibsim {

/*
 * Heap invariants (DESIGN.md has the narrative):
 *
 *  - heap_ holds one entry per Pending or Cancelled node and nothing
 *    else, so heap_.size() - pendingCount_ counts the cancelled entries
 *    and every other pool slot is on the free list.
 *  - Entries are a (when, seq) min-heap; seq is unique, so popping the
 *    top always yields the earliest event, ties in insertion order.
 *
 * Cancellation marks the node and leaves its entry in place; the node is
 * reclaimed when the entry reaches the top, or by compact() once
 * cancelled entries dominate the heap (retransmission timers are almost
 * always cancelled by progress and must not pin pool slots until their
 * distant expiry). The handle generation check makes cancel-after-execute
 * a true O(1) no-op: no auxiliary set, nothing grows.
 */

EventHandle
EventQueue::schedule(Time when, Callback cb)
{
    assert(when >= now_ && "cannot schedule events in the past");
    const std::uint32_t idx = allocNode();
    Node& n = pool_[idx];
    n.state = NodeState::Pending;
    n.cb = std::move(cb);
    heapPush(Entry{when, nextSeq_++, idx});
    ++pendingCount_;
    return EventHandle{(static_cast<std::uint64_t>(n.gen) << 32) |
                       (idx + 1)};
}

bool
EventQueue::cancel(EventHandle h)
{
    if (!pending(h))
        return false;
    Node& n = pool_[static_cast<std::uint32_t>(h.id_ & 0xffffffffu) - 1];
    n.state = NodeState::Cancelled;
    n.cb.reset();  // release captures eagerly
    --pendingCount_;
    ++cancelledCount_;
    const std::size_t cancelled = heap_.size() - pendingCount_;
    if (cancelled > 1024 && cancelled * 2 > heap_.size())
        compact();
    return true;
}

std::uint32_t
EventQueue::allocNode()
{
    if (freeHead_ != nil) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        pool_[idx].next = nil;
        return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::freeNode(std::uint32_t idx)
{
    Node& n = pool_[idx];
    n.cb.reset();
    n.state = NodeState::Free;
    ++n.gen;  // invalidates every outstanding handle to this slot
    n.next = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::heapPush(const Entry& e)
{
    heap_.push_back(e);
    std::size_t hole = heap_.size() - 1;
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!earlier(e, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = e;
}

EventQueue::Entry
EventQueue::heapPop()
{
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
    return top;
}

void
EventQueue::siftDown(std::size_t hole, Entry e)
{
    const std::size_t size = heap_.size();
    for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= size)
            break;
        if (child + 1 < size && earlier(heap_[child + 1], heap_[child]))
            ++child;
        if (!earlier(heap_[child], e))
            break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = e;
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (const Entry& e : heap_) {
        if (pool_[e.idx].state == NodeState::Cancelled)
            freeNode(e.idx);
        else
            heap_[kept++] = e;
    }
    heap_.resize(kept);
    // Rebuild the heap property bottom-up (Floyd): O(kept).
    for (std::size_t i = kept / 2; i-- > 0;)
        siftDown(i, heap_[i]);
}

bool
EventQueue::skipCancelled()
{
    while (heap_.size() > pendingCount_ &&
           pool_[heap_.front().idx].state == NodeState::Cancelled)
        freeNode(heapPop().idx);
    return !heap_.empty();
}

void
EventQueue::executeTop()
{
    const Entry e = heapPop();
    Node& n = pool_[e.idx];
    now_ = e.when;
    --pendingCount_;
    ++executedCount_;
    Callback cb = std::move(n.cb);
    // Free before invoking: a handle to this event is stale from the
    // callback's point of view (cancel() is a no-op), and the slot is
    // immediately reusable by anything the callback schedules.
    freeNode(e.idx);
    cb();
}

bool
EventQueue::run(Time limit)
{
    for (;;) {
        if (!skipCancelled())
            return true;
        if (heap_.front().when > limit) {
            now_ = limit;
            return false;
        }
        executeTop();
    }
}

bool
EventQueue::runUntil(const std::function<bool()>& pred, Time limit)
{
    if (pred())
        return true;
    for (;;) {
        if (!skipCancelled())
            return false;
        if (heap_.front().when > limit) {
            now_ = limit;
            return false;
        }
        executeTop();
        if (pred())
            return true;
    }
}

Time
EventQueue::nextEventTime()
{
    return skipCancelled() ? heap_.front().when : Time::max();
}

void
EventQueue::advance(Time delta)
{
    const Time target = now_ + delta;
    run(target);
    now_ = target;
}

EventQueue::KernelStats
EventQueue::kernelStats() const
{
    KernelStats s;
    s.poolNodes = pool_.size();
    s.freeNodes = pool_.size() - heap_.size();
    s.heapNodes = heap_.size();
    s.cancelledTotal = cancelledCount_;
    return s;
}

} // namespace ibsim
