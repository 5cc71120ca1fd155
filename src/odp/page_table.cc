#include "odp/page_table.hh"

#include <cassert>

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

OdpPageTable::Entry*
OdpPageTable::find(const Key& key)
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

const OdpPageTable::Entry*
OdpPageTable::find(const Key& key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

PageState
OdpPageTable::state(const Key& key, bool mapped) const
{
    const Entry* entry = find(key);
    if (entry)
        return entry->state;
    return mapped ? PageState::Present : PageState::NotPresent;
}

bool
OdpPageTable::admit(PageState from, PageState to, bool from_steady,
                    bool to_steady)
{
    const auto steady = [](PageState s) {
        return s == PageState::NotPresent || s == PageState::Present;
    };
    const bool legal = pageTransitionLegal(from, to) &&
                       steady(from) == from_steady &&
                       steady(to) == to_steady;
    assert(legal && "illegal page transition");
    if (!legal)
        ++stats_.illegalTransitionsBlocked;
    return legal;
}

OdpPageTable::Entry*
OdpPageTable::enter(const Key& key, PageState from, PageState to)
{
    if (!admit(from, to, /*from_steady=*/true, /*to_steady=*/false))
        return nullptr;
    auto [it, inserted] = entries_.try_emplace(key);
    assert(inserted && "page already transient");
    (void)inserted;
    it->second.state = to;
    ++stats_.transitions;
    return &it->second;
}

void
OdpPageTable::transition(Entry& entry, PageState to)
{
    if (!admit(entry.state, to, /*from_steady=*/false, /*to_steady=*/false))
        return;
    entry.state = to;
    ++stats_.transitions;
}

void
OdpPageTable::leave(const Key& key, PageState to)
{
    auto it = entries_.find(key);
    assert(it != entries_.end() && "leaving a page with no entry");
    if (it == entries_.end() ||
        !admit(it->second.state, to, /*from_steady=*/false,
               /*to_steady=*/true))
        return;
    ++stats_.transitions;
    entries_.erase(it);
}

std::size_t
OdpPageTable::transientPages(const TranslationTable* table) const
{
    std::size_t count = 0;
    for (auto it = entries_.lower_bound({table, 0});
         it != entries_.end() && it->first.first == table; ++it)
        ++count;
    return count;
}

} // namespace odp
} // namespace ibsim
