#include "mem/address_space.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace ibsim {
namespace mem {

namespace {

/** Smallest page buffer; buffers double from here up to pageSize. */
constexpr std::uint64_t minBufferBytes = 256;

} // namespace

std::uint64_t
AddressSpace::alloc(std::uint64_t size)
{
    if (size == 0)
        throw std::invalid_argument("AddressSpace::alloc: size must be > 0");
    // Rounding up to whole pages must not wrap past 2^64.
    const std::uint64_t room =
        std::numeric_limits<std::uint64_t>::max() - nextFree_;
    if (size > room - (pageSize - 1)) {
        throw std::invalid_argument(
            "AddressSpace::alloc: size " + std::to_string(size) +
            " overflows the address space");
    }
    const std::uint64_t base = nextFree_;
    nextFree_ += (size + pageSize - 1) / pageSize * pageSize;
    return base;
}

AddressSpace::Chunk::~Chunk()
{
    for (std::uint64_t w = 0; w < chunkPages / 64; ++w) {
        for (std::uint64_t bits = presentBits[w]; bits != 0; bits &= bits - 1)
            delete[] frames[w * 64 + std::countr_zero(bits)].bytes;
    }
}

const AddressSpace::Chunk*
AddressSpace::findChunk(std::uint64_t page_idx) const
{
    const auto it = chunks_.find(page_idx / chunkPages);
    return it == chunks_.end() ? nullptr : it->second.get();
}

AddressSpace::Chunk&
AddressSpace::chunk(std::uint64_t page_idx)
{
    std::unique_ptr<Chunk>& c = chunks_[page_idx / chunkPages];
    if (!c)
        c = std::make_unique<Chunk>();
    return *c;
}

bool
AddressSpace::present(std::uint64_t vaddr) const
{
    const Chunk* c = findChunk(pageOf(vaddr));
    return c != nullptr && c->present(pageOf(vaddr) % chunkPages);
}

void
AddressSpace::touch(std::uint64_t vaddr, std::uint64_t len)
{
    assert(len > 0);
    const std::uint64_t first = pageOf(vaddr);
    const std::uint64_t last = pageOf(vaddr + len - 1);
    for (std::uint64_t p = first; p <= last; ++p)
        populatePage(p * pageSize);
}

bool
AddressSpace::populatePage(std::uint64_t vaddr)
{
    const std::uint64_t p = pageOf(vaddr);
    if (!chunk(p).populate(p % chunkPages))
        return false;
    ++presentPages_;
    return true;
}

void
AddressSpace::releasePage(std::uint64_t vaddr)
{
    const std::uint64_t p = pageOf(vaddr);
    const auto it = chunks_.find(p / chunkPages);
    if (it == chunks_.end())
        return;
    Chunk& c = *it->second;
    const std::uint64_t i = p % chunkPages;
    if (!c.present(i))
        return;
    c.presentBits[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    Frame& f = c.frames[i];
    storedBytes_ -= f.size;
    delete[] f.bytes;
    f = Frame{};
    --presentPages_;
}

void
AddressSpace::write(std::uint64_t vaddr,
                    const std::vector<std::uint8_t>& data)
{
    std::uint64_t off = 0;
    while (off < data.size()) {
        const std::uint64_t va = vaddr + off;
        Chunk& c = chunk(pageOf(va));
        const std::uint64_t i = pageOf(va) % chunkPages;
        if (c.populate(i))
            ++presentPages_;
        Frame& f = c.frames[i];
        const std::uint64_t in_page = va % pageSize;
        const std::uint64_t n =
            std::min<std::uint64_t>(pageSize - in_page, data.size() - off);
        const std::uint64_t end = in_page + n;
        if (end > f.size) {
            // Grow to the next power of two covering the write; the new
            // tail stays zero, as unwritten bytes of a present page read.
            std::uint64_t size = std::max<std::uint64_t>(f.size,
                                                         minBufferBytes);
            while (size < end)
                size *= 2;
            auto* bytes = new std::uint8_t[size]();
            if (f.size > 0)
                std::memcpy(bytes, f.bytes, f.size);
            delete[] f.bytes;
            storedBytes_ += size - f.size;
            f.bytes = bytes;
            f.size = static_cast<std::uint16_t>(size);
        }
        std::memcpy(f.bytes + in_page, data.data() + off, n);
        off += n;
    }
}

std::vector<std::uint8_t>
AddressSpace::read(std::uint64_t vaddr, std::uint64_t len) const
{
    std::vector<std::uint8_t> out(len, 0);
    std::uint64_t off = 0;
    while (off < len) {
        const std::uint64_t va = vaddr + off;
        const std::uint64_t in_page = va % pageSize;
        const std::uint64_t n =
            std::min<std::uint64_t>(pageSize - in_page, len - off);
        if (const Chunk* c = findChunk(pageOf(va))) {
            const Frame& f = c->frames[pageOf(va) % chunkPages];
            if (in_page < f.size) {
                std::memcpy(out.data() + off, f.bytes + in_page,
                            std::min<std::uint64_t>(n, f.size - in_page));
            }
        }
        off += n;
    }
    return out;
}

} // namespace mem
} // namespace ibsim
