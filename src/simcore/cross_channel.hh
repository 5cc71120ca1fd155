/**
 * @file
 * A mutex-guarded cross-island channel with a lock-free readiness probe.
 *
 * One CrossChannel sits on every directed (source island, destination
 * island) edge that the kernel's BarrierAgent routes work along (the
 * fabric's packet parcels). The producer is the worker currently
 * executing the source island; the consumer is the worker currently
 * executing the destination island — under pairwise channel clocks those
 * run concurrently, so no phase barrier separates writes from drains
 * and the buffer needs a real lock.
 *
 * The lock is cold in practice: minKey caches the smallest key buffered,
 * so a consumer polling for work (inboundEarliest, or a flush whose
 * threshold is below everything buffered) costs one relaxed-ish atomic
 * load and never touches the mutex. Correctness of the probe does not
 * depend on seeing a concurrent push: the kernel publishes an island's
 * clock *after* its sends with a release store and consumers read clocks
 * with an acquire load *before* probing channels, so every item at or
 * below the consumer's safe horizon is already visible by the time the
 * horizon permits consuming it (the channel-clock soundness argument in
 * DESIGN.md §12.b).
 */

#ifndef IBSIM_SIMCORE_CROSS_CHANNEL_HH
#define IBSIM_SIMCORE_CROSS_CHANNEL_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

namespace ibsim {

template <typename T>
class CrossChannel
{
  public:
    static constexpr std::int64_t kEmpty =
        std::numeric_limits<std::int64_t>::max();

    /** Stage one item keyed by its (virtual-time) threshold key. */
    void
    push(std::int64_t key, T&& item)
    {
        std::lock_guard<std::mutex> lock(m_);
        buf_.push_back(std::move(item));
        if (key < minKey_.load(std::memory_order_relaxed))
            minKey_.store(key, std::memory_order_release);
    }

    /** Smallest key buffered (kEmpty when none) — lock-free probe. */
    std::int64_t
    minKey() const
    {
        return minKey_.load(std::memory_order_acquire);
    }

    /**
     * Move every item with key(item) <= threshold into @p out, preserving
     * push order (the producer island's deterministic execution order).
     * @p key extracts the threshold key from an item.
     */
    template <typename KeyFn>
    void
    drainUpTo(std::int64_t threshold, KeyFn key, std::vector<T>& out)
    {
        if (minKey() > threshold)
            return;
        std::lock_guard<std::mutex> lock(m_);
        std::size_t keep = 0;
        std::int64_t rest = kEmpty;
        for (std::size_t i = 0; i < buf_.size(); ++i) {
            const std::int64_t k = key(buf_[i]);
            if (k <= threshold) {
                out.push_back(std::move(buf_[i]));
            } else {
                rest = std::min(rest, k);
                if (keep != i)
                    buf_[keep] = std::move(buf_[i]);
                ++keep;
            }
        }
        buf_.resize(keep);
        minKey_.store(rest, std::memory_order_release);
    }

    /** Buffered item count (consumer-side observability; takes the lock). */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return buf_.size();
    }

  private:
    mutable std::mutex m_;
    std::vector<T> buf_;
    std::atomic<std::int64_t> minKey_{kEmpty};
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_CROSS_CHANNEL_HH
