#include "simcore/event_queue.hh"

#include <bit>
#include <cassert>

namespace ibsim {

/*
 * Tier invariants (the correctness core; DESIGN.md has the narrative):
 *
 *  - wheelTick_ is the wheel's read position in 256 ns ticks. It advances
 *    only inside refillDue(), jumping straight to the next occupied slot.
 *  - due_ holds exactly the events with when-tick <= wheelTick_ (the
 *    current level-0 slot window and anything scheduled "behind" the
 *    wheel while now_ lags a jump). It is a (when, seq) min-heap, so
 *    popping it reproduces the old single-heap execution order exactly.
 *  - A wheel slot at level L holds events whose tick lies in that slot's
 *    [start, start + 64^L * 256ns) window; every such start is strictly
 *    after the current level-0 window, so wheel events always sort after
 *    everything in due_.
 *  - overflow_ holds events beyond the top level's horizon; they migrate
 *    into due_ as the wheel reaches their window.
 *
 * Cancellation marks the node and leaves it in place; the node is
 * reclaimed when its tier surfaces it (or by sweepOverflow() when
 * cancelled far-future timers dominate the overflow tier). The handle
 * generation check makes cancel-after-execute a true O(1) no-op: no
 * auxiliary set, nothing grows.
 */

EventHandle
EventQueue::schedule(Time when, Callback cb)
{
    assert(when >= now_ && "cannot schedule events in the past");
    const std::uint32_t idx = allocNode();
    Node& n = pool_[idx];
    n.when = when;
    n.seq = nextSeq_++;
    n.state = NodeState::Pending;
    n.cb = std::move(cb);
    placeNode(idx);
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
    if (n.home == NodeHome::Overflow) {
        ++overflowCancelled_;
        // Far-future cancelled timers (retransmission timers are almost
        // always cancelled by progress) must not pin pool slots until
        // their distant expiry: sweep once they dominate the tier.
        if (overflowCancelled_ > 1024 &&
            overflowCancelled_ * 2 > overflow_.size()) {
            sweepOverflow();
        }
    }
    return true;
}

std::uint32_t
EventQueue::allocNode()
{
    if (freeHead_ != nil) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        --freeCount_;
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
    ++freeCount_;
}

bool
EventQueue::earlier(std::uint32_t a, std::uint32_t b) const
{
    const Node& x = pool_[a];
    const Node& y = pool_[b];
    if (x.when != y.when)
        return x.when < y.when;
    return x.seq < y.seq;
}

void
EventQueue::heapPush(std::vector<std::uint32_t>& heap, std::uint32_t idx)
{
    heap.push_back(idx);
    std::size_t child = heap.size() - 1;
    while (child > 0) {
        const std::size_t parent = (child - 1) / 2;
        if (!earlier(heap[child], heap[parent]))
            break;
        std::swap(heap[child], heap[parent]);
        child = parent;
    }
}

std::uint32_t
EventQueue::heapPop(std::vector<std::uint32_t>& heap)
{
    const std::uint32_t top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    std::size_t parent = 0;
    const std::size_t size = heap.size();
    for (;;) {
        std::size_t best = parent;
        const std::size_t left = 2 * parent + 1;
        const std::size_t right = left + 1;
        if (left < size && earlier(heap[left], heap[best]))
            best = left;
        if (right < size && earlier(heap[right], heap[best]))
            best = right;
        if (best == parent)
            break;
        std::swap(heap[parent], heap[best]);
        parent = best;
    }
    return top;
}

void
EventQueue::placeNode(std::uint32_t idx)
{
    Node& n = pool_[idx];
    const std::uint64_t tick = tickOf(n.when);
    if (tick <= wheelTick_) {
        // Current wheel window — or behind it, when run(limit) left now_
        // short of a wheel jump. The due heap orders it correctly either
        // way.
        n.home = NodeHome::Due;
        heapPush(due_, idx);
        return;
    }
    for (int level = 0; level < levels; ++level) {
        const int shift = slotBits * level;
        const std::uint64_t rel =
            (tick >> shift) - (wheelTick_ >> shift);
        if (rel < slotsPerLevel) {
            const std::uint32_t slot =
                static_cast<std::uint32_t>((tick >> shift) &
                                           (slotsPerLevel - 1));
            n.home = NodeHome::Wheel;
            n.next = slots_[level][slot];
            slots_[level][slot] = idx;
            occupied_[level] |= 1ull << slot;
            ++wheelCount_;
            return;
        }
    }
    n.home = NodeHome::Overflow;
    heapPush(overflow_, idx);
}

void
EventQueue::sweepOverflow()
{
    std::size_t kept = 0;
    for (const std::uint32_t idx : overflow_) {
        if (pool_[idx].state == NodeState::Cancelled)
            freeNode(idx);
        else
            overflow_[kept++] = idx;
    }
    overflow_.resize(kept);
    overflowCancelled_ = 0;
    // Rebuild the heap property bottom-up (Floyd): O(kept).
    for (std::size_t i = kept / 2; i-- > 0;) {
        std::size_t parent = i;
        for (;;) {
            std::size_t best = parent;
            const std::size_t left = 2 * parent + 1;
            const std::size_t right = left + 1;
            if (left < kept && earlier(overflow_[left], overflow_[best]))
                best = left;
            if (right < kept && earlier(overflow_[right], overflow_[best]))
                best = right;
            if (best == parent)
                break;
            std::swap(overflow_[parent], overflow_[best]);
            parent = best;
        }
    }
}

bool
EventQueue::refillDue()
{
    while (due_.empty()) {
        // 1. Cascade: upper-level slots that contain the current position
        //    redistribute downward (their events are due within the
        //    current upper window). Reinsertion preserves seq, so order
        //    is untouched.
        for (int level = levels - 1; level >= 1; --level) {
            const int shift = slotBits * level;
            const std::uint32_t slot = static_cast<std::uint32_t>(
                (wheelTick_ >> shift) & (slotsPerLevel - 1));
            if (!(occupied_[level] & (1ull << slot)))
                continue;
            std::uint32_t chain = slots_[level][slot];
            slots_[level][slot] = nil;
            occupied_[level] &= ~(1ull << slot);
            while (chain != nil) {
                const std::uint32_t idx = chain;
                chain = pool_[idx].next;
                pool_[idx].next = nil;
                --wheelCount_;
                if (pool_[idx].state == NodeState::Cancelled)
                    freeNode(idx);
                else
                    placeNode(idx);
            }
        }

        // 2. Dump the current level-0 slot into the due heap.
        {
            const std::uint32_t slot =
                static_cast<std::uint32_t>(wheelTick_ &
                                           (slotsPerLevel - 1));
            if (occupied_[0] & (1ull << slot)) {
                std::uint32_t chain = slots_[0][slot];
                slots_[0][slot] = nil;
                occupied_[0] &= ~(1ull << slot);
                while (chain != nil) {
                    const std::uint32_t idx = chain;
                    chain = pool_[idx].next;
                    pool_[idx].next = nil;
                    --wheelCount_;
                    if (pool_[idx].state == NodeState::Cancelled) {
                        freeNode(idx);
                    } else {
                        pool_[idx].home = NodeHome::Due;
                        heapPush(due_, idx);
                    }
                }
            }
        }

        // 3. Drain overflow events that fall inside the current window.
        const Time slotEnd = Time::fromNs(
            static_cast<std::int64_t>((wheelTick_ + 1) << tickBits));
        while (!overflow_.empty() &&
               pool_[overflow_.front()].when < slotEnd) {
            const std::uint32_t idx = heapPop(overflow_);
            if (pool_[idx].state == NodeState::Cancelled) {
                freeNode(idx);
                if (overflowCancelled_ > 0)
                    --overflowCancelled_;
            } else {
                pool_[idx].home = NodeHome::Due;
                heapPush(due_, idx);
            }
        }

        if (!due_.empty())
            return true;

        // 4. Jump to the next occupied window: the earliest nonempty slot
        //    across all levels (slot starts lower-bound their events and
        //    all are 256 ns-aligned, so the minimum start is correct),
        //    or the overflow head, whichever comes first.
        std::uint64_t bestTick = ~0ull;
        for (int level = 0; level < levels; ++level) {
            const std::uint64_t bits = occupied_[level];
            if (!bits)
                continue;
            const int shift = slotBits * level;
            const std::uint64_t cur = wheelTick_ >> shift;
            const std::uint32_t slot = static_cast<std::uint32_t>(
                cur & (slotsPerLevel - 1));
            // Rotate so the current slot is bit 0; live slots all lie in
            // (cur, cur + 64), so the first set bit above 0 is the next
            // occupied slot in absolute order.
            const std::uint64_t rotated =
                (slot ? (bits >> slot) | (bits << (64 - slot)) : bits) &
                ~1ull;
            if (!rotated)
                continue;
            const std::uint64_t off =
                static_cast<std::uint64_t>(std::countr_zero(rotated));
            const std::uint64_t slotStartTick = (cur + off) << shift;
            if (slotStartTick < bestTick)
                bestTick = slotStartTick;
        }
        if (!overflow_.empty()) {
            const std::uint64_t t =
                tickOf(pool_[overflow_.front()].when);
            if (t < bestTick)
                bestTick = t;
        }
        if (bestTick == ~0ull)
            return false;  // nothing pending anywhere
        assert(bestTick > wheelTick_);
        wheelTick_ = bestTick;
    }
    return true;
}

std::uint32_t
EventQueue::nextRunnable()
{
    for (;;) {
        if (due_.empty() && !refillDue())
            return nil;
        const std::uint32_t idx = due_.front();
        if (pool_[idx].state == NodeState::Cancelled) {
            heapPop(due_);
            freeNode(idx);
            continue;
        }
        return idx;  // left on the due heap; executeNode pops it
    }
}

void
EventQueue::executeNode(std::uint32_t idx)
{
    Node& n = pool_[idx];
    now_ = n.when;
    --pendingCount_;
    ++executedCount_;
    Callback cb = std::move(n.cb);
    // Free before invoking: a handle to this event is stale from the
    // callback's point of view (cancel() is a no-op), and the slot is
    // immediately reusable by anything the callback schedules.
    freeNode(idx);
    cb();
}

bool
EventQueue::run(Time limit)
{
    for (;;) {
        const std::uint32_t idx = nextRunnable();
        if (idx == nil)
            return true;
        if (pool_[idx].when > limit) {
            now_ = limit;
            return false;
        }
        heapPop(due_);
        executeNode(idx);
    }
}

bool
EventQueue::runUntil(const std::function<bool()>& pred, Time limit)
{
    if (pred())
        return true;
    for (;;) {
        const std::uint32_t idx = nextRunnable();
        if (idx == nil)
            return false;
        if (pool_[idx].when > limit) {
            now_ = limit;
            return false;
        }
        heapPop(due_);
        executeNode(idx);
        if (pred())
            return true;
    }
}

Time
EventQueue::nextEventTime()
{
    const std::uint32_t idx = nextRunnable();
    return idx == nil ? Time::max() : pool_[idx].when;
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
    s.freeNodes = freeCount_;
    s.wheelNodes = wheelCount_;
    s.dueNodes = due_.size();
    s.overflowNodes = overflow_.size();
    s.cancelledTotal = cancelledCount_;
    return s;
}

} // namespace ibsim
