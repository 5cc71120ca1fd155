/**
 * @file
 * Per-page state machine of the ODP driver (DESIGN.md section 14).
 *
 * Every ODP page the driver is actively working on has an explicit state:
 *
 *     NotPresent ──raiseFault──▶ Faulting ──resolve──▶ Present
 *         ▲                        │                      │
 *         │              invalidate_start       invalidate_start
 *   invalidate_end                 ▼                      ▼
 *         └──────────────── FaultingInvalidated     Invalidating
 *                                  │                      │
 *                           invalidate_end         invalidate_end
 *                            (fault retries)   (NotPresent, or Faulting
 *                                  ▼            when a fault queued
 *                               Faulting        behind the window)
 *
 * The map only stores entries for pages in a transient state (Faulting,
 * Invalidating, FaultingInvalidated); Present and NotPresent are derived
 * from the RNIC translation table. Every transition is checked against
 * the legal-edge table above, so an impossible interleaving asserts (or,
 * with NDEBUG, is refused and counted) instead of silently corrupting
 * page state — the structural guarantee behind the
 * fault/invalidate/prefetch race fixes.
 */

#ifndef IBSIM_ODP_PAGE_TABLE_HH
#define IBSIM_ODP_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace odp {

class TranslationTable;

/** Lifecycle state of one ODP page, as the driver sees it. */
enum class PageState : std::uint8_t
{
    /** No host frame, no RNIC translation (initial state). */
    NotPresent,
    /** A network fault is being resolved (interrupt + allocation). */
    Faulting,
    /** Host frame present and RNIC translation installed. */
    Present,
    /** MMU-notifier window open: invalidate_start ran, end pending. */
    Invalidating,
    /** An invalidation landed mid-fault; the fault must retry. */
    FaultingInvalidated,
};

const char* pageStateName(PageState state);

/** Whether @p from -> @p to is a legal edge of the state machine. */
bool pageTransitionLegal(PageState from, PageState to);

/** Transition counters, exported through OdpDriver::stats(). */
struct PageTableStats
{
    std::uint64_t transitions = 0;
    /** Edges refused by the legality check (only reachable with NDEBUG). */
    std::uint64_t illegalTransitionsBlocked = 0;
};

/**
 * Storage + transition enforcement for the driver's transient pages.
 *
 * The driver owns the policy (when to schedule what); this class owns the
 * invariant that page state only ever moves along legal edges.
 */
class OdpPageTable
{
  public:
    using Key = std::pair<const TranslationTable*, std::uint64_t>;

    /** One transient page. */
    struct Entry
    {
        PageState state = PageState::NotPresent;

        /** Callbacks to fire when the page finally becomes Present. */
        std::vector<EventQueue::Callback> callbacks;

        /** Scheduled (or estimated) resolution time of the live fault. */
        Time resolveAt;

        /** Guards scheduled resolve events against superseded attempts. */
        std::uint64_t faultEpoch = 0;

        /** Guards scheduled invalidate_end events against extensions. */
        std::uint64_t windowEpoch = 0;

        /** When Invalidating / FaultingInvalidated: invalidate_end time. */
        Time windowEndAt;

        /** A fault arrived during the notifier window (Invalidating). */
        bool refault = false;

        /** Latency drawn for the fault queued behind the window. */
        Time refaultLatency;
    };

    /** Entry for the page, or nullptr when Present / NotPresent. */
    Entry* find(const Key& key);
    const Entry* find(const Key& key) const;

    /**
     * Effective state of a page: the entry's state when transient,
     * otherwise Present/NotPresent per @p mapped.
     */
    PageState state(const Key& key, bool mapped) const;

    /**
     * Create the entry for a page entering transient state @p to from
     * Present/NotPresent (@p from). Asserts the page had no entry.
     * Returns nullptr when the edge is refused.
     */
    Entry* enter(const Key& key, PageState from, PageState to);

    /**
     * Move an existing entry along the @p to edge into another transient
     * state.
     */
    void transition(Entry& entry, PageState to);

    /**
     * Retire the entry: the page reached Present (fault resolved) or
     * NotPresent (invalidate_end with no queued fault).
     */
    void leave(const Key& key, PageState to);

    /** Transient entries for @p table (Faulting/Invalidating/...). */
    std::size_t transientPages(const TranslationTable* table) const;

    /** All transient entries, for observability. */
    std::size_t size() const { return entries_.size(); }

    const PageTableStats& stats() const { return stats_; }

    /** Iteration support (tests / observability). */
    const std::map<Key, Entry>& entries() const { return entries_; }

  private:
    /**
     * The one legality check behind enter/transition/leave: @p from ->
     * @p to must be a legal edge whose ends are steady (Present or
     * NotPresent) exactly where the entry point expects. Asserts on an
     * illegal edge; with NDEBUG counts it as blocked and returns false.
     */
    bool admit(PageState from, PageState to, bool from_steady,
               bool to_steady);

    std::map<Key, Entry> entries_;
    PageTableStats stats_;
};

} // namespace odp
} // namespace ibsim

#endif // IBSIM_ODP_PAGE_TABLE_HH
