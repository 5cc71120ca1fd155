#include "odp/translation_table.hh"

#include <cassert>

namespace ibsim {
namespace odp {

TranslationTable::TranslationTable(bool odp, std::uint64_t vaddr,
                                   std::uint64_t len)
    : odp_(odp)
{
    if (!odp_ && len > 0)
        pinned_ = mem::pageOf(vaddr + len - 1) - mem::pageOf(vaddr) + 1;
}

bool
TranslationTable::mappedRange(std::uint64_t vaddr, std::uint64_t len) const
{
    return firstUnmapped(vaddr, len) == 0;
}

std::uint64_t
TranslationTable::firstUnmapped(std::uint64_t vaddr, std::uint64_t len) const
{
    if (!odp_ || len == 0)
        return 0;
    const std::uint64_t first = mem::pageOf(vaddr);
    const std::uint64_t last = mem::pageOf(vaddr + len - 1);
    for (std::uint64_t p = first; p <= last; ++p) {
        if (state(p) != PageState::Present)
            return p * mem::pageSize;
    }
    return 0;
}

void
TranslationTable::mapPage(std::uint64_t vaddr)
{
    assert(state(mem::pageOf(vaddr)) == PageState::NotPresent &&
           "mapPage installs NotPresent pages only");
    set(mem::pageOf(vaddr), PageState::Present);
}

PageRecord*
TranslationTable::set(std::uint64_t page, PageState to)
{
    assert(odp_ && "pinned pages have no ODP state");
    PageRecord* record = records_.find(page);
    if (record != nullptr && record->state == PageState::Present)
        --present_;
    if (to == PageState::NotPresent) {
        records_.erase(page);
        return nullptr;
    }
    if (record == nullptr)
        record = &records_.insert(page, PageRecord{});
    record->state = to;
    if (to == PageState::Present) {
        ++present_;
        record->work.reset();
    } else if (!record->work) {
        record->work = std::make_unique<PageWork>();
    }
    return record;
}

} // namespace odp
} // namespace ibsim
