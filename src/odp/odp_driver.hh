/**
 * @file
 * The ODP kernel driver model for one node.
 *
 * When the RNIC touches an unmapped page of an ODP region it raises a
 * network page fault here. The driver resolves it after the configured
 * latency (interrupt + kernel page allocation + table update, paper
 * Sec. III-A), populates the host page, installs the RNIC translation, and
 * fires the callbacks registered for that fault. Concurrent faults on the
 * same page coalesce into one resolution.
 *
 * Invalidation follows the kernel's MMU-notifier shape (DESIGN.md
 * section 14): invalidate_start flushes the RNIC translation immediately
 * and opens a quiesce window; invalidate_end (after invalidateLatency)
 * releases the host frame. Faults and prefetches that collide with the
 * window serialize behind it via the per-page state machine in
 * page_table.hh instead of racing the unmap. Prefetch (ibv_advise_mr
 * style) resolves pages without an RNIC-side fault, skipping pages a
 * fault or a window already owns.
 */

#ifndef IBSIM_ODP_ODP_DRIVER_HH
#define IBSIM_ODP_ODP_DRIVER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/address_space.hh"
#include "odp/odp_config.hh"
#include "odp/page_table.hh"
#include "odp/translation_table.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"

namespace ibsim {
namespace odp {

/** Counters exposed for experiment analysis. */
struct DriverStats
{
    std::uint64_t faultsRaised = 0;
    std::uint64_t faultsCoalesced = 0;
    std::uint64_t faultsResolved = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t prefetchedPages = 0;

    /** Doomed faults (FaultingInvalidated) restarted at invalidate_end. */
    std::uint64_t faultRetries = 0;
    /** Faults that arrived inside a notifier window and queued behind it. */
    std::uint64_t faultsQueuedBehindWindow = 0;
    /** Invalidations that landed inside an already-open window. */
    std::uint64_t invalidationsCoalesced = 0;
    /** Notifier windows opened (invalidate_start events). */
    std::uint64_t notifierWindows = 0;
    /** Faults that installed a whole aligned huge-page block. */
    std::uint64_t hugeMappings = 0;
    /** Extra pages mapped by huge-page expansion (excludes the fault). */
    std::uint64_t hugePagesMapped = 0;
    /** Prefetches issued by the driver-side policy (not the verbs API). */
    std::uint64_t autoPrefetches = 0;
    /** Prefetch pages skipped because a fault/window owned the page. */
    std::uint64_t prefetchSkippedBusy = 0;
};

/**
 * Per-node ODP driver.
 */
class OdpDriver
{
  public:
    /**
     * Fault-resolution callback. Inline-capacity callable: the per-fault
     * callback lists on the hot flood paths hold these without a heap
     * allocation per registered waiter.
     */
    using ResolveCallback = EventQueue::Callback;

    /** Observer of page resolutions (the status board). */
    using ResolutionObserver =
        std::function<void(TranslationTable&, std::uint64_t page)>;

    OdpDriver(EventQueue& events, Rng& rng, mem::AddressSpace& memory,
              FaultTiming timing);

    /**
     * Raise a network page fault for the page holding @p vaddr in @p table.
     *
     * @param on_resolved invoked once the translation is installed; may be
     *        empty. Multiple faults on one in-flight page coalesce and all
     *        callbacks fire at the single resolution. A fault on a Present
     *        page raises nothing: the callback runs from an event now.
     * @return the virtual time at which the fault will resolve (an
     *         estimate when the fault queued behind a notifier window).
     */
    Time raiseFault(TranslationTable& table, std::uint64_t vaddr,
                    ResolveCallback on_resolved = {});

    /** Whether a fault on the page holding @p vaddr is in flight. */
    bool faultInFlight(const TranslationTable& table,
                       std::uint64_t vaddr) const;

    /**
     * Invalidate the page holding @p vaddr. invalidate_start flushes the
     * RNIC translation now and opens a quiesce window; invalidate_end
     * releases the host frame after invalidateLatency and restarts any
     * fault that collided with the window. With hugePages set the whole
     * aligned block is invalidated (reclaim splits the huge mapping).
     */
    void invalidate(TranslationTable& table, std::uint64_t vaddr);

    /** Pre-resolve all pages of [vaddr, vaddr+len) without faulting. */
    void prefetch(TranslationTable& table, std::uint64_t vaddr,
                  std::uint64_t len);

    /** The page-state legality gate and its counters (tests). */
    const OdpPageTable& pageTable() const { return pages_; }

    /** Register an observer of page resolutions (the status board). */
    void
    setResolutionObserver(ResolutionObserver obs)
    {
        resolutionObserver_ = std::move(obs);
    }

    /**
     * Install a congestion probe: a multiplier (>= 1) applied to fault
     * resolution latency, typically fed by the status board's stale
     * count.
     */
    void
    setCongestionProbe(std::function<double()> probe)
    {
        congestionProbe_ = std::move(probe);
    }

    /**
     * Install a latency chaos probe (chaos engine): an additional
     * multiplier (>= 1 to slow, exactly 1.0 to pass through) applied to
     * fault resolution latency on top of the congestion probe. Kept
     * separate so fault campaigns compose with the flood congestion
     * model instead of replacing it.
     */
    void
    setLatencyChaos(std::function<double()> probe)
    {
        latencyChaos_ = std::move(probe);
    }

    const DriverStats& stats() const { return stats_; }

    /** The queue this driver schedules its fault/invalidation work on. */
    EventQueue& events() { return events_; }

  private:
    /** Draw one fault-resolution latency (uniform x congestion x chaos). */
    Time drawFaultLatency();

    /** Schedule completeFault at work.resolveAt and keep its handle. */
    void scheduleResolve(TranslationTable& table, std::uint64_t page_idx,
                         PageWork& work);

    /** Schedule invalidateEnd at work.windowEndAt, replacing the last. */
    void scheduleWindowEnd(TranslationTable& table, std::uint64_t page_idx,
                           PageWork& work);

    /** Resolve a Faulting page (invalidate_start cancels this event). */
    void completeFault(TranslationTable& table, std::uint64_t page_idx);

    /** invalidate_start for one page. */
    void invalidateOne(TranslationTable& table, std::uint64_t page_idx);

    /** invalidate_end for one page (an extension cancels the old one). */
    void invalidateEnd(TranslationTable& table, std::uint64_t page_idx);

    /** Scheduled prefetch sweep over [first, last]. */
    void prefetchSweep(TranslationTable& table, std::uint64_t first,
                       std::uint64_t last);

    /** Apply the configured prefetch policy after a fresh fault. */
    void maybeAutoPrefetch(TranslationTable& table, std::uint64_t page_idx);

    /**
     * Map the rest of the aligned huge block around a resolved fault.
     * Returns the extra pages mapped (empty unless hugePages is on).
     */
    std::vector<std::uint64_t> expandHugeMapping(TranslationTable& table,
                                                 std::uint64_t page_idx);

    EventQueue& events_;
    Rng& rng_;
    mem::AddressSpace& memory_;
    FaultTiming timing_;
    OdpPageTable pages_;
    ResolutionObserver resolutionObserver_;
    std::function<double()> congestionProbe_;
    std::function<double()> latencyChaos_;
    DriverStats stats_;
};

} // namespace odp
} // namespace ibsim

#endif // IBSIM_ODP_ODP_DRIVER_HH
