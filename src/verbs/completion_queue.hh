/**
 * @file
 * Completion queues.
 *
 * RNICs push WorkCompletion entries here; applications poll. Counters track
 * cumulative totals so experiment harnesses can wait for "all operations
 * completed" without retaining every entry.
 */

#ifndef IBSIM_VERBS_COMPLETION_QUEUE_HH
#define IBSIM_VERBS_COMPLETION_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "simcore/tap_list.hh"
#include "verbs/types.hh"

namespace ibsim {
namespace verbs {

/**
 * A completion queue shared by any number of QPs.
 */
class CompletionQueue
{
  public:
    CompletionQueue() = default;
    CompletionQueue(const CompletionQueue&) = delete;
    CompletionQueue& operator=(const CompletionQueue&) = delete;

    /** RNIC-side: insert a completion. */
    void push(const WorkCompletion& wc);

    /**
     * Install a push listener (completion-channel style notification).
     * The entry still lands in the queue for polling.
     */
    void
    setListener(std::function<void(const WorkCompletion&)> listener)
    {
        listener_ = std::move(listener);
    }

    /**
     * Add a passive observer of every accepted completion, independent of
     * the single listener slot. Observers (e.g. the chaos invariant
     * monitor) run before the listener and never consume entries.
     */
    TapId
    addTap(std::function<void(const WorkCompletion&)> tap)
    {
        return taps_.add(std::move(tap));
    }

    /** Unregister an observer added by addTap(). */
    void removeTap(TapId id) { taps_.remove(id); }

    /**
     * Cap the pending depth (chaos CQ-overflow pressure). Completions
     * pushed while @p capacity entries are already pending are LOST —
     * counted in overflows() and reported to the overflow handler, but
     * invisible to poll(), the listener, taps and the totals, exactly
     * like a real CQ overrun losing CQEs. 0 (the default) is unbounded.
     */
    void setCapacity(std::size_t capacity) { capacity_ = capacity; }

    /** Completions lost to the capacity cap. */
    std::uint64_t overflows() const { return overflows_; }

    /** Notified (with the lost entry) on each overflow. */
    void
    setOverflowHandler(std::function<void(const WorkCompletion&)> handler)
    {
        overflowHandler_ = std::move(handler);
    }

    /** Poll up to @p max entries (all pending if max == 0). */
    std::vector<WorkCompletion> poll(std::size_t max = 0);

    /** Entries pushed over the queue's lifetime. */
    std::uint64_t totalCompletions() const { return total_; }

    /** Successful entries pushed over the lifetime. */
    std::uint64_t totalSuccess() const { return success_; }

    /** Errored entries pushed over the lifetime. */
    std::uint64_t totalErrors() const { return total_ - success_; }

    /** Entries currently pending (pushed, not yet polled). */
    std::size_t pending() const { return queue_.size(); }

    /** First errored completion seen, if any. */
    bool hasError() const { return firstErrorSeen_; }
    const WorkCompletion& firstError() const { return firstError_; }

  private:
    std::function<void(const WorkCompletion&)> listener_;
    TapList<std::function<void(const WorkCompletion&)>> taps_;
    std::function<void(const WorkCompletion&)> overflowHandler_;
    std::deque<WorkCompletion> queue_;
    std::size_t capacity_ = 0;
    std::uint64_t overflows_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t success_ = 0;
    bool firstErrorSeen_ = false;
    WorkCompletion firstError_;
};

} // namespace verbs
} // namespace ibsim

#endif // IBSIM_VERBS_COMPLETION_QUEUE_HH
