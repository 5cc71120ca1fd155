/**
 * @file
 * Client-side page-status view tracking — the packet-flood quirk.
 *
 * The paper's Sec. VI finds that with many QPs faulting concurrently under
 * client-side ODP, QPs keep retransmitting and discarding responses long
 * after the page fault itself resolved: their view of the page status fails
 * to update. This board models that per-QP view. Each faulting (QP, page)
 * pair registers as a waiter; when the driver maps the page the board
 * refreshes waiters' views promptly — unless the update-failure conditions
 * hit (see FloodQuirkConfig), in which case the waiter joins a slow,
 * rate-limited refresh queue whose service time grows with the stale
 * population.
 *
 * The requester engine treats a response as unusable while either the local
 * page is unmapped or the view is stale, which is exactly the observable
 * behaviour the paper reverse-engineered (Fig. 11).
 */

#ifndef IBSIM_ODP_PAGE_STATUS_BOARD_HH
#define IBSIM_ODP_PAGE_STATUS_BOARD_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "odp/odp_config.hh"
#include "odp/translation_table.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"

namespace ibsim {
namespace odp {

/** Counters for flood analysis. */
struct BoardStats
{
    std::uint64_t waitersRegistered = 0;
    std::uint64_t promptUpdates = 0;
    std::uint64_t updateFailures = 0;
    std::uint64_t slowRefreshes = 0;
};

/**
 * Per-RNIC board of QP page-status views.
 */
class PageStatusBoard
{
  public:
    PageStatusBoard(EventQueue& events, Rng& rng, FloodQuirkConfig config);

    /**
     * Record that @p qpn is waiting on a fault for @p page_idx of
     * @p table. Idempotent per (table, page, qpn); the first registration
     * time decides staleness.
     */
    void registerWaiter(const TranslationTable* table,
                        std::uint64_t page_idx, std::uint32_t qpn);

    /** Drop a waiter (QP flushed or destroyed). */
    void unregisterWaiter(const TranslationTable* table,
                          std::uint64_t page_idx, std::uint32_t qpn);

    /**
     * Whether @p qpn's view of the page status is up to date. True when the
     * QP never waited on the page or its refresh already landed.
     */
    bool fresh(const TranslationTable* table, std::uint64_t page_idx,
               std::uint32_t qpn) const;

    /** Driver observer: the page's translation was just installed. */
    void onPageMapped(const TranslationTable& table, std::uint64_t page_idx);

    /** Waiters currently stale (update failed, slow refresh pending). */
    std::size_t staleCount() const { return slowQueue_.size(); }

    /** Waiters currently registered (pre- or post-failure). */
    std::size_t waiterCount() const { return waiters_.size(); }

    const BoardStats& stats() const { return stats_; }
    const FloodQuirkConfig& config() const { return config_; }

  private:
    struct Waiter
    {
        Time since;
        bool stale = false;
    };

    using Key =
        std::tuple<const TranslationTable*, std::uint64_t, std::uint32_t>;

    /** Kick the slow-refresh service if it is idle. */
    void scheduleService(Time lead);

    /** Remove every queued copy of @p key. */
    void purgeFromSlowQueue(const Key& key);

    /** Serve one slow refresh from the queue. */
    void serviceFired();

    EventQueue& events_;
    Rng& rng_;
    FloodQuirkConfig config_;
    std::map<Key, Waiter> waiters_;

    /** LIFO queue of stale waiters awaiting the slow refresh. */
    std::vector<Key> slowQueue_;
    /** The slow-refresh service's next run; idle unless pending. */
    EventHandle serviceTimer_;

    BoardStats stats_;
};

} // namespace odp
} // namespace ibsim

#endif // IBSIM_ODP_PAGE_STATUS_BOARD_HH
