#include "odp/odp_driver.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simcore/log.hh"

namespace ibsim {
namespace odp {

namespace {

log::Component traceOdp("odp");

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
    const Key key{&table, page_idx};

    if (Entry* entry = pages_.find(key)) {
        switch (entry->state) {
          case PageState::Faulting:
          case PageState::FaultingInvalidated:
            // Fault already in flight for this page: coalesce.
            ++stats_.faultsCoalesced;
            if (on_resolved)
                entry->callbacks.push_back(std::move(on_resolved));
            return entry->resolveAt;
          case PageState::Invalidating:
            if (entry->refault) {
                // A fault already queued behind this window: coalesce.
                ++stats_.faultsCoalesced;
                if (on_resolved)
                    entry->callbacks.push_back(std::move(on_resolved));
                return entry->resolveAt;
            }
            // The notifier window blocks the fault handler (the kernel's
            // mmu_interval_read_retry loop): the fault only starts
            // resolving at invalidate_end.
            ++stats_.faultsRaised;
            ++stats_.faultsQueuedBehindWindow;
            entry->refault = true;
            entry->refaultLatency = drawFaultLatency();
            entry->resolveAt = entry->windowEndAt + entry->refaultLatency;
            if (on_resolved)
                entry->callbacks.push_back(std::move(on_resolved));
            IBSIM_TRACE(traceOdp, events_.now(),
                        "page fault queued behind notifier window page=" +
                            std::to_string(page_idx));
            return entry->resolveAt;
          default:
            assert(false && "transient entry in a steady state");
            break;
        }
    }

    ++stats_.faultsRaised;
    const Time latency = drawFaultLatency();
    const Time resolve_at = events_.now() + latency;
    // NotPresent -> Faulting is a legal edge: enter() never refuses it.
    Entry& entry = *pages_.enter(key, PageState::NotPresent,
                                 PageState::Faulting);
    entry.resolveAt = resolve_at;
    if (on_resolved)
        entry.callbacks.push_back(std::move(on_resolved));
    const std::uint64_t epoch = ++entry.faultEpoch;

    IBSIM_TRACE(traceOdp, events_.now(),
                "page fault raised page=" + std::to_string(page_idx) +
                    " resolves in " + latency.str());

    events_.schedule(resolve_at, [this, &table, page_idx, epoch] {
        completeFault(table, page_idx, epoch);
    });
    maybeAutoPrefetch(table, page_idx);
    return resolve_at;
}

bool
OdpDriver::faultInFlight(const TranslationTable& table,
                         std::uint64_t vaddr) const
{
    const Entry* entry = pages_.find({&table, mem::pageOf(vaddr)});
    if (!entry)
        return false;
    // A fault queued behind a notifier window counts: callbacks are
    // registered and a resolution is guaranteed to fire.
    return entry->state == PageState::Faulting ||
           entry->state == PageState::FaultingInvalidated ||
           (entry->state == PageState::Invalidating && entry->refault);
}

PageState
OdpDriver::pageState(const TranslationTable& table,
                     std::uint64_t vaddr) const
{
    const std::uint64_t page_idx = mem::pageOf(vaddr);
    return pages_.state({&table, page_idx},
                        table.mappedPage(page_idx * mem::pageSize));
}

bool
OdpDriver::pageTransient(const TranslationTable& table,
                         std::uint64_t vaddr) const
{
    return pages_.find({&table, mem::pageOf(vaddr)}) != nullptr;
}

void
OdpDriver::completeFault(TranslationTable& table, std::uint64_t page_idx,
                         std::uint64_t epoch)
{
    const Key key{&table, page_idx};
    Entry* entry = pages_.find(key);
    if (!entry || entry->faultEpoch != epoch)
        return; // Superseded: the fault restarted under a newer epoch.
    if (entry->state != PageState::Faulting) {
        // invalidate_start doomed this attempt (FaultingInvalidated);
        // invalidate_end will restart it from the top of the handler.
        IBSIM_TRACE(traceOdp, events_.now(),
                    "fault resolution discarded by notifier window page=" +
                        std::to_string(page_idx));
        return;
    }

    const std::uint64_t vaddr = page_idx * mem::pageSize;
    memory_.populatePage(vaddr);
    table.mapPage(vaddr);
    ++stats_.faultsResolved;

    IBSIM_TRACE(traceOdp, events_.now(),
                "page fault resolved page=" +
                    std::to_string(page_idx));

    auto callbacks = std::move(entry->callbacks);
    pages_.leave(key, PageState::Present);

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
        if (p == page_idx)
            continue;
        const std::uint64_t va = p * mem::pageSize;
        // Pages another fault or an open window owns stay theirs: the
        // huge mapping installs around them, never over them.
        if (table.mappedPage(va) || pages_.find({&table, p}))
            continue;
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
    ++stats_.invalidations;
    const std::uint64_t page_idx = mem::pageOf(vaddr);
    if (timing_.hugePages && timing_.hugePageSpan > 1) {
        // Reclaim splits the huge mapping: every page of the aligned
        // block goes through its own invalidate_start.
        const std::uint64_t span = timing_.hugePageSpan;
        const std::uint64_t base = page_idx - (page_idx % span);
        for (std::uint64_t p = base; p < base + span; ++p) {
            if (p == page_idx) {
                invalidateOne(table, p);
                continue;
            }
            const std::uint64_t va = p * mem::pageSize;
            if (table.mappedPage(va) || pages_.find({&table, p}))
                invalidateOne(table, p);
        }
        return;
    }
    invalidateOne(table, page_idx);
}

void
OdpDriver::invalidateOne(TranslationTable& table, std::uint64_t page_idx)
{
    const Key key{&table, page_idx};
    const std::uint64_t vaddr = page_idx * mem::pageSize;
    const Time end_at = events_.now() + timing_.invalidateLatency;

    Entry* entry = pages_.find(key);
    if (!entry) {
        // invalidate_start: the RNIC translation is flushed NOW — new
        // translations stay blocked for the whole window. The host frame
        // is only released at invalidate_end.
        const bool was_mapped = table.invalidatePage(vaddr);
        Entry& fresh = *pages_.enter(key,
                                     was_mapped ? PageState::Present
                                                : PageState::NotPresent,
                                     PageState::Invalidating);
        fresh.windowEndAt = end_at;
        const std::uint64_t wepoch = ++fresh.windowEpoch;
        ++stats_.notifierWindows;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "invalidate_start page=" + std::to_string(page_idx));
        events_.schedule(end_at, [this, &table, page_idx, wepoch] {
            invalidateEnd(table, page_idx, wepoch);
        });
        return;
    }

    switch (entry->state) {
      case PageState::Faulting: {
        // invalidate_start lands mid-fault: doom the in-flight
        // resolution. The fault restarts at invalidate_end.
        pages_.transition(*entry, PageState::FaultingInvalidated);
        entry->windowEndAt = end_at;
        const std::uint64_t wepoch = ++entry->windowEpoch;
        ++stats_.notifierWindows;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "invalidate_start dooms in-flight fault page=" +
                        std::to_string(page_idx));
        events_.schedule(end_at, [this, &table, page_idx, wepoch] {
            invalidateEnd(table, page_idx, wepoch);
        });
        break;
      }
      case PageState::Invalidating:
      case PageState::FaultingInvalidated: {
        // A second invalidation inside an open window extends it; the
        // superseded invalidate_end is discarded via the epoch.
        ++stats_.invalidationsCoalesced;
        if (end_at > entry->windowEndAt) {
            entry->windowEndAt = end_at;
            const std::uint64_t wepoch = ++entry->windowEpoch;
            if (entry->refault)
                entry->resolveAt = end_at + entry->refaultLatency;
            events_.schedule(end_at, [this, &table, page_idx, wepoch] {
                invalidateEnd(table, page_idx, wepoch);
            });
        }
        break;
      }
      default:
        assert(false && "transient entry in a steady state");
        break;
    }
}

void
OdpDriver::invalidateEnd(TranslationTable& table, std::uint64_t page_idx,
                         std::uint64_t window_epoch)
{
    const Key key{&table, page_idx};
    Entry* entry = pages_.find(key);
    if (!entry || entry->windowEpoch != window_epoch)
        return; // The window was extended: a newer end event owns it.
    assert(entry->state == PageState::Invalidating ||
           entry->state == PageState::FaultingInvalidated);

    const std::uint64_t vaddr = page_idx * mem::pageSize;
    // invalidate_end: the quiesce is complete and the kernel takes the
    // host frame back.
    memory_.releasePage(vaddr);
    IBSIM_TRACE(traceOdp, events_.now(),
                "page invalidated page=" + std::to_string(page_idx));

    if (entry->state == PageState::FaultingInvalidated) {
        // The doomed fault retries from the top of the handler with a
        // fresh latency draw.
        ++stats_.faultRetries;
        pages_.transition(*entry, PageState::Faulting);
        const Time latency = drawFaultLatency();
        entry->resolveAt = events_.now() + latency;
        const std::uint64_t epoch = ++entry->faultEpoch;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "page fault retries page=" + std::to_string(page_idx) +
                        " resolves in " + latency.str());
        events_.schedule(entry->resolveAt,
                         [this, &table, page_idx, epoch] {
                             completeFault(table, page_idx, epoch);
                         });
        return;
    }

    if (entry->refault) {
        // The fault that queued behind the window starts resolving now,
        // with the latency drawn when it arrived.
        pages_.transition(*entry, PageState::Faulting);
        entry->refault = false;
        entry->resolveAt = events_.now() + entry->refaultLatency;
        const std::uint64_t epoch = ++entry->faultEpoch;
        IBSIM_TRACE(traceOdp, events_.now(),
                    "queued fault starts page=" + std::to_string(page_idx));
        events_.schedule(entry->resolveAt,
                         [this, &table, page_idx, epoch] {
                             completeFault(table, page_idx, epoch);
                         });
        return;
    }

    pages_.leave(key, PageState::NotPresent);
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
        if (!table.mappedPage(p * mem::pageSize) &&
            !pages_.find({&table, p}))
            ++fresh;
    }
    const Time cost = timing_.prefetchLatencyPerPage *
                      static_cast<double>(fresh == 0 ? 1 : fresh);
    events_.scheduleAfter(cost, [this, &table, first, last] {
        prefetchSweep(table, first, last);
    });
}

void
OdpDriver::prefetchSweep(TranslationTable& table, std::uint64_t first,
                         std::uint64_t last)
{
    for (std::uint64_t p = first; p <= last; ++p) {
        const std::uint64_t va = p * mem::pageSize;
        if (table.mappedPage(va))
            continue;
        if (pages_.find({&table, p})) {
            // A fault owns the page or a notifier window is open: the
            // advise must neither double-populate nor bypass the
            // quiesce. The owning path will finish the page.
            ++stats_.prefetchSkippedBusy;
            continue;
        }
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
        SeqState& s = seq_[&table];
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
