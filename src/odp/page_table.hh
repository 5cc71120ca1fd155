/**
 * @file
 * Per-page state machine of the ODP driver (DESIGN.md section 14).
 *
 * Every ODP page has an explicit state:
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
 * The state lives in one place: the PageRecord that the region's
 * TranslationTable keeps for the page (no record means NotPresent).
 * OdpPageTable is the gate every edge passes: it checks the edge from the
 * page's real state against the table above, so an impossible
 * interleaving asserts (or, with NDEBUG, is refused and counted) instead
 * of silently corrupting page state — the structural guarantee behind the
 * fault/invalidate/prefetch race fixes.
 */

#ifndef IBSIM_ODP_PAGE_TABLE_HH
#define IBSIM_ODP_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
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

/** Whether the driver is working on a page in @p state. */
inline bool
transientState(PageState state)
{
    return state != PageState::NotPresent && state != PageState::Present;
}

/** Transition counters, exported through OdpDriver::stats(). */
struct PageTableStats
{
    std::uint64_t transitions = 0;
    /** Edges refused by the legality check (only reachable with NDEBUG). */
    std::uint64_t illegalTransitionsBlocked = 0;
};

/** What the driver tracks for a page while it is transient. */
struct PageWork
{
    /** Callbacks to fire when the page finally becomes Present. */
    std::vector<EventQueue::Callback> callbacks;

    /** Scheduled (or estimated) resolution time of the live fault. */
    Time resolveAt;

    /** The pending resolve event while Faulting (cancelled on doom). */
    EventHandle resolveEvent;

    /** The pending invalidate_end event (cancelled on extension). */
    EventHandle windowEndEvent;

    /** When Invalidating / FaultingInvalidated: invalidate_end time. */
    Time windowEndAt;

    /** A fault arrived during the notifier window (Invalidating). */
    bool refault = false;

    /** Latency drawn for the fault queued behind the window. */
    Time refaultLatency;
};

/**
 * One ODP page's record in its region's TranslationTable. A Present
 * page's record is just its state; the work fields exist exactly while
 * the page is transient. An episode's scheduled events end with it: each
 * runs or is cancelled before the page leaves its transient state.
 */
struct PageRecord
{
    PageState state = PageState::NotPresent;
    std::unique_ptr<PageWork> work;
};

/**
 * The legality gate for page-state edges.
 *
 * The driver owns the policy (when to schedule what); this class owns the
 * invariant that page state only ever moves along legal edges. It stores
 * no pages: each region's TranslationTable owns its records.
 */
class OdpPageTable
{
  public:
    /**
     * Move page @p page of @p table from its current state to @p to.
     * Asserts on an illegal edge; with NDEBUG the edge is refused,
     * counted and changes nothing.
     *
     * @return the page's record after the move; nullptr when the page
     *         ends NotPresent or the edge is refused. The record lives in
     *         the table, so the pointer dies with the table's next
     *         insert.
     */
    PageRecord* move(TranslationTable& table, std::uint64_t page,
                     PageState to);

    const PageTableStats& stats() const { return stats_; }

  private:
    PageTableStats stats_;
};

} // namespace odp
} // namespace ibsim

#endif // IBSIM_ODP_PAGE_TABLE_HH
