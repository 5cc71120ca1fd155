/**
 * @file
 * RNIC-side virtual-to-physical translation table for one memory region,
 * and the one store of its pages' ODP state.
 *
 * Pinned memory regions are fully mapped at registration time and never
 * change; their tables hold no records. ODP regions start empty; each
 * page the driver touches gets a PageRecord whose state says whether
 * the translation is installed (Present) or what the driver is doing
 * with the page (paper Secs. II-A, III-A; DESIGN.md section 14).
 */

#ifndef IBSIM_ODP_TRANSLATION_TABLE_HH
#define IBSIM_ODP_TRANSLATION_TABLE_HH

#include <cstdint>

#include "mem/address_space.hh"
#include "odp/page_table.hh"
#include "rnic/flat_table.hh"

namespace ibsim {
namespace odp {

/**
 * Per-MR page mapping state inside the RNIC.
 */
class TranslationTable
{
  public:
    /** The region's sequential-fault detector (PrefetchPolicy). */
    struct PrefetchStream
    {
        std::uint64_t lastPage = 0;
        std::uint32_t streak = 0;
        bool valid = false;
    };

    /**
     * @param odp true for an on-demand region (starts unmapped); false for
     *        a pinned region, mapped everywhere.
     * @param vaddr, len a pinned region's range, counted by mappedPages().
     */
    explicit TranslationTable(bool odp, std::uint64_t vaddr = 0,
                              std::uint64_t len = 0);

    bool odp() const { return odp_; }

    /** State of page @p page (a page index, not an address). */
    PageState
    state(std::uint64_t page) const
    {
        if (!odp_)
            return PageState::Present;
        const PageRecord* record = records_.find(page);
        return record == nullptr ? PageState::NotPresent : record->state;
    }

    /** Record of page @p page; nullptr when NotPresent or pinned. */
    PageRecord* find(std::uint64_t page) { return records_.find(page); }
    const PageRecord*
    find(std::uint64_t page) const
    {
        return records_.find(page);
    }

    /** Whether the page holding @p vaddr has a valid translation. */
    bool
    mappedPage(std::uint64_t vaddr) const
    {
        return state(mem::pageOf(vaddr)) == PageState::Present;
    }

    /** Whether every page of [vaddr, vaddr + len) is mapped. */
    bool mappedRange(std::uint64_t vaddr, std::uint64_t len) const;

    /**
     * First unmapped page address in [vaddr, vaddr + len), or 0 when the
     * whole range is mapped. (Address 0 is never inside a region.)
     */
    std::uint64_t firstUnmapped(std::uint64_t vaddr,
                                std::uint64_t len) const;

    /**
     * Install the translation for the NotPresent page holding @p vaddr
     * without a fault (prefetch, huge-page expansion).
     */
    void mapPage(std::uint64_t vaddr);

    /** Number of mapped pages (0 means nothing faulted in yet). */
    std::size_t mappedPages() const { return odp_ ? present_ : pinned_; }

    PrefetchStream& prefetchStream() { return stream_; }

  private:
    /** OdpPageTable::move writes through set() after its legality check. */
    friend class OdpPageTable;

    /** Store @p to as page @p page's state; returns its record, if any. */
    PageRecord* set(std::uint64_t page, PageState to);

    bool odp_;
    /** Pages a pinned region spans. */
    std::size_t pinned_ = 0;
    /** Present pages of an ODP region. */
    std::size_t present_ = 0;
    rnic::FlatKeyMap<PageRecord, std::uint64_t> records_;
    PrefetchStream stream_;
};

} // namespace odp
} // namespace ibsim

#endif // IBSIM_ODP_TRANSLATION_TABLE_HH
