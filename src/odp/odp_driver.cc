#include "odp/odp_driver.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simcore/log.hh"

namespace ibsim {
namespace odp {

namespace {

log::Component traceOdp("odp");

/** Cost of invalidating one page (flush + kernel round trip). */
constexpr Time invalidateLatency = Time::us(30);

} // namespace

OdpDriver::OdpDriver(EventQueue& events, Rng& rng,
                     mem::AddressSpace& memory, FaultTiming timing)
    : events_(events), rng_(rng), memory_(memory), timing_(timing)
{
}

Time
OdpDriver::drawFaultLatency()
{
    Time latency = rng_.uniformTime(timing_.faultLatencyMin,
                                    timing_.faultLatencyMax);
    if (congestionProbe_) {
        // Flood congestion: the fault machinery is shared, so resolution
        // stretches while many QPs are stuck (Fig. 11's compounding).
        const double factor = std::max(1.0, congestionProbe_());
        latency = latency * factor;
    }
    if (latencyChaos_) {
        // Chaos-injected servicing stalls compose with (not replace) the
        // congestion model above.
        const double factor = std::max(1.0, latencyChaos_());
        latency = latency * factor;
    }
    return latency;
}

Time
OdpDriver::raiseFault(TranslationTable& table, std::uint64_t vaddr,
                      ResolveCallback on_resolved)
{
    assert(table.odp() && "faults only occur on ODP regions");
    const std::uint64_t page_idx = mem::pageOf(vaddr);

    PageRecord* record = table.find(page_idx);
    const PageState state =
        record == nullptr ? PageState::NotPresent : record->state;
    if (state == PageState::Present) {
        // The translation is already installed: nothing to resolve. The
        // callback still runs from the event loop, never inline.
        if (on_resolved)
            events_.schedule(events_.now(), std::move(on_resolved));
        return events_.now();
    }
    if (transientState(state)) {
        PageWork& work = *record->work;
        if (state != PageState::Invalidating || work.refault) {
            // A fault is already in flight for this page, or already
            // queued behind its notifier window: coalesce.
            ++stats_.faultsCoalesced;
            if (on_resolved)
                work.callbacks.push_back(std::move(on_resolved));
            return work.resolveAt;
        }
        // The notifier window blocks the fault handler (the kernel's
        // mmu_interval_read_retry loop): the fault only starts
        // resolving at invalidate_end.
        ++stats_.faultsRaised;
        ++stats_.faultsQueuedBehindWindow;
        work.refault = true;
        work.refaultLatency = drawFaultLatency();
        work.resolveAt = work.windowEndAt + work.refaultLatency;
        if (on_resolved)
            work.callbacks.push_back(std::move(on_resolved));
        IBSIM_TRACE(traceOdp, events_.now(),
                    "page fault queued behind notifier window page=" +
                        std::to_string(page_idx));
        return work.resolveAt;
    }

    ++stats_.faultsRaised;
    const Time latency = drawFaultLatency();
    const Time resolve_at = events_.now() + latency;
    // NotPresent -> Faulting is a legal edge: move() never refuses it.
    PageWork& work = *pages_.move(table, page_idx, PageState::Faulting)->work;
    work.resolveAt = resolve_at;
    if (on_resolved)
        work.callbacks.push_back(std::move(on_resolved));

    IBSIM_TRACE(traceOdp, events_.now(),
                "page fault raised page=" + std::to_string(page_idx) +
                    " resolves in " + latency.str());

    scheduleResolve(table, page_idx, work);
    maybeAutoPrefetch(table, page_idx);
    return resolve_at;
}

bool
OdpDriver::faultInFlight(const TranslationTable& table,
                         std::uint64_t vaddr) const
{
    const PageRecord* record = table.find(mem::pageOf(vaddr));
    if (record == nullptr)
        return false;
    // A fault queued behind a notifier window counts: callbacks are
    // registered and a resolution is guaranteed to fire.
    return record->state == PageState::Faulting ||
           record->state == PageState::FaultingInvalidated ||
           (record->state == PageState::Invalidating &&
            record->work->refault);
}

void
OdpDriver::scheduleResolve(TranslationTable& table, std::uint64_t page_idx,
                           PageWork& work)
{
    work.resolveEvent =
        events_.schedule(work.resolveAt, [this, &table, page_idx] {
            completeFault(table, page_idx);
        });
}

void
OdpDriver::scheduleWindowEnd(TranslationTable& table,
                             std::uint64_t page_idx, PageWork& work)
{
    events_.cancel(work.windowEndEvent);
    work.windowEndEvent =
        events_.schedule(work.windowEndAt, [this, &table, page_idx] {
            invalidateEnd(table, page_idx);
        });
}

void
OdpDriver::completeFault(TranslationTable& table, std::uint64_t page_idx)
{
    PageRecord* record = table.find(page_idx);
    // Every other edge out of Faulting cancels this event.
    assert(record != nullptr && record->state == PageState::Faulting);

    memory_.populatePage(page_idx * mem::pageSize);
    ++stats_.faultsResolved;

    IBSIM_TRACE(traceOdp, events_.now(),
                "page fault resolved page=" +
                    std::to_string(page_idx));

    auto callbacks = std::move(record->work->callbacks);
    // Faulting -> Present installs the translation.
    pages_.move(table, page_idx, PageState::Present);

    const auto extra = expandHugeMapping(table, page_idx);

    if (resolutionObserver_) {
        resolutionObserver_(table, page_idx);
        for (std::uint64_t p : extra)
            resolutionObserver_(table, p);
    }
    for (auto& cb : callbacks)
        cb();
}

std::vector<std::uint64_t>
OdpDriver::expandHugeMapping(TranslationTable& table,
                             std::uint64_t page_idx)
{
    std::vector<std::uint64_t> extra;
    if (!timing_.hugePages || timing_.hugePageSpan <= 1)
        return extra;
    const std::uint64_t span = timing_.hugePageSpan;
    const std::uint64_t base = page_idx - (page_idx % span);
    for (std::uint64_t p = base; p < base + span; ++p) {
        // Pages another fault or an open window owns stay theirs: the
        // huge mapping installs around them, never over them.
        if (table.state(p) != PageState::NotPresent)
            continue;
        const std::uint64_t va = p * mem::pageSize;
        memory_.populatePage(va);
        table.mapPage(va);
        extra.push_back(p);
    }
    if (!extra.empty()) {
        ++stats_.hugeMappings;
        stats_.hugePagesMapped += extra.size();
        IBSIM_TRACE(traceOdp, events_.now(),
                    "huge mapping installed base=" + std::to_string(base) +
                        " pages=" + std::to_string(extra.size() + 1));
    }
    return extra;
}

void
OdpDriver::invalidate(TranslationTable& table, std::uint64_t vaddr)
{
    assert(table.odp() && "only ODP pages are reclaimed");
    ++stats_.invalidations;
    const std::uint64_t page_idx = mem::pageOf(vaddr);
    if (timing_.hugePages && timing_.hugePageSpan > 1) {
        // Reclaim splits the huge mapping: every page of the aligned
        // block goes through its own invalidate_start.
        const std::uint64_t span = timing_.hugePageSpan;
        const std::uint64_t base = page_idx - (page_idx % span);
        for (std::uint64_t p = base; p < base + span; ++p) {
            if (p == page_idx || table.state(p) != PageState::NotPresent)
                invalidateOne(table, p);
        }
        return;
    }
    invalidateOne(table, page_idx);
}

void
OdpDriver::invalidateOne(TranslationTable& table, std::uint64_t page_idx)
{
    const Time end_at = events_.now() + invalidateLatency;

    switch (table.state(page_idx)) {
      case PageState::NotPresent:
      case PageState::Present: {
        // invalidate_start: the RNIC translation is flushed NOW — new
        // translations stay blocked for the whole window. The host frame
        // is only released at invalidate_end.
        PageWork& work =
            *pages_.move(table, page_idx, PageState::Invalidating)->work;
        work.windowEndAt = end_at;
        ++stats_.notifierWindows;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "invalidate_start page=" + std::to_string(page_idx));
        scheduleWindowEnd(table, page_idx, work);
        break;
      }
      case PageState::Faulting: {
        // invalidate_start lands mid-fault: cancel the in-flight
        // resolution. The fault restarts at invalidate_end.
        PageWork& work =
            *pages_.move(table, page_idx, PageState::FaultingInvalidated)
                 ->work;
        events_.cancel(work.resolveEvent);
        work.windowEndAt = end_at;
        ++stats_.notifierWindows;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "invalidate_start dooms in-flight fault page=" +
                        std::to_string(page_idx));
        scheduleWindowEnd(table, page_idx, work);
        break;
      }
      case PageState::Invalidating:
      case PageState::FaultingInvalidated: {
        // A second invalidation inside an open window extends it; the
        // superseded invalidate_end is cancelled.
        PageWork& work = *table.find(page_idx)->work;
        ++stats_.invalidationsCoalesced;
        if (end_at > work.windowEndAt) {
            work.windowEndAt = end_at;
            if (work.refault)
                work.resolveAt = end_at + work.refaultLatency;
            scheduleWindowEnd(table, page_idx, work);
        }
        break;
      }
    }
}

void
OdpDriver::invalidateEnd(TranslationTable& table, std::uint64_t page_idx)
{
    PageRecord* record = table.find(page_idx);
    // A window extension cancels the superseded end event.
    assert(record != nullptr &&
           (record->state == PageState::Invalidating ||
            record->state == PageState::FaultingInvalidated));
    PageWork& work = *record->work;

    // invalidate_end: the quiesce is complete and the kernel takes the
    // host frame back.
    memory_.releasePage(page_idx * mem::pageSize);
    IBSIM_TRACE(traceOdp, events_.now(),
                "page invalidated page=" + std::to_string(page_idx));

    if (record->state == PageState::FaultingInvalidated) {
        // The doomed fault retries from the top of the handler with a
        // fresh latency draw.
        ++stats_.faultRetries;
        pages_.move(table, page_idx, PageState::Faulting);
        const Time latency = drawFaultLatency();
        work.resolveAt = events_.now() + latency;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "page fault retries page=" + std::to_string(page_idx) +
                        " resolves in " + latency.str());
        scheduleResolve(table, page_idx, work);
        return;
    }

    if (work.refault) {
        // The fault that queued behind the window starts resolving now,
        // with the latency drawn when it arrived.
        pages_.move(table, page_idx, PageState::Faulting);
        work.refault = false;
        work.resolveAt = events_.now() + work.refaultLatency;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "queued fault starts page=" + std::to_string(page_idx));
        scheduleResolve(table, page_idx, work);
        return;
    }

    pages_.move(table, page_idx, PageState::NotPresent);
}

void
OdpDriver::prefetch(TranslationTable& table, std::uint64_t vaddr,
                    std::uint64_t len)
{
    if (len == 0)
        return;
    const std::uint64_t first = mem::pageOf(vaddr);
    const std::uint64_t last = mem::pageOf(vaddr + len - 1);

    // Cost covers only the pages the advise will actually resolve: pages
    // a fault or a notifier window owns belong to those paths.
    std::uint64_t fresh = 0;
    for (std::uint64_t p = first; p <= last; ++p) {
        if (table.state(p) == PageState::NotPresent)
            ++fresh;
    }
    const Time cost =
        prefetchLatencyPerPage * static_cast<double>(fresh == 0 ? 1 : fresh);
    events_.scheduleAfter(cost, [this, &table, first, last] {
        prefetchSweep(table, first, last);
    });
}

void
OdpDriver::prefetchSweep(TranslationTable& table, std::uint64_t first,
                         std::uint64_t last)
{
    for (std::uint64_t p = first; p <= last; ++p) {
        const PageState state = table.state(p);
        if (state == PageState::Present)
            continue;
        if (state != PageState::NotPresent) {
            // A fault owns the page or a notifier window is open: the
            // advise must neither double-populate nor bypass the
            // quiesce. The owning path will finish the page.
            ++stats_.prefetchSkippedBusy;
            continue;
        }
        const std::uint64_t va = p * mem::pageSize;
        memory_.populatePage(va);
        table.mapPage(va);
        ++stats_.prefetchedPages;
        if (resolutionObserver_)
            resolutionObserver_(table, p);
    }
}

void
OdpDriver::maybeAutoPrefetch(TranslationTable& table,
                             std::uint64_t page_idx)
{
    if (timing_.prefetchPolicy == PrefetchPolicy::None ||
        timing_.prefetchWidth == 0)
        return;
    if (timing_.prefetchPolicy == PrefetchPolicy::SequentialDetect) {
        TranslationTable::PrefetchStream& s = table.prefetchStream();
        const bool sequential = s.valid && page_idx == s.lastPage + 1;
        s.lastPage = page_idx;
        s.valid = true;
        s.streak = sequential ? s.streak + 1 : 0;
        if (s.streak < 1)
            return; // Need two consecutive faulting pages to trigger.
    }
    ++stats_.autoPrefetches;
    prefetch(table, (page_idx + 1) * mem::pageSize,
             timing_.prefetchWidth * mem::pageSize);
}

} // namespace odp
} // namespace ibsim
