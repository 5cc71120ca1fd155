#include "odp/page_table.hh"

#include <cassert>

#include "odp/translation_table.hh"

namespace ibsim {
namespace odp {

const char*
pageStateName(PageState state)
{
    switch (state) {
      case PageState::NotPresent:
        return "NotPresent";
      case PageState::Faulting:
        return "Faulting";
      case PageState::Present:
        return "Present";
      case PageState::Invalidating:
        return "Invalidating";
      case PageState::FaultingInvalidated:
        return "FaultingInvalidated";
    }
    return "?";
}

bool
pageTransitionLegal(PageState from, PageState to)
{
    switch (from) {
      case PageState::NotPresent:
        // A fault starts resolving, or the kernel reclaims a host frame
        // that never had an RNIC translation (the window still opens so
        // concurrent faults serialize behind it).
        return to == PageState::Faulting || to == PageState::Invalidating;
      case PageState::Faulting:
        // Resolution installs the translation, or invalidate_start lands
        // mid-fault and dooms this resolution attempt.
        return to == PageState::Present ||
               to == PageState::FaultingInvalidated;
      case PageState::Present:
        // Only the notifier path takes a page out of Present.
        return to == PageState::Invalidating;
      case PageState::Invalidating:
        // invalidate_end: the page is gone, or a fault that queued
        // behind the window starts resolving.
        return to == PageState::NotPresent || to == PageState::Faulting;
      case PageState::FaultingInvalidated:
        // invalidate_end: the doomed fault retries.
        return to == PageState::Faulting;
    }
    return false;
}

PageRecord*
OdpPageTable::move(TranslationTable& table, std::uint64_t page,
                   PageState to)
{
    const bool legal = pageTransitionLegal(table.state(page), to);
    assert(legal && "illegal page transition");
    if (!legal) {
        ++stats_.illegalTransitionsBlocked;
        return nullptr;
    }
    ++stats_.transitions;
    return table.set(page, to);
}

} // namespace odp
} // namespace ibsim
