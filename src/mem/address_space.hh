/**
 * @file
 * Host virtual address space model.
 *
 * Each simulated node owns one AddressSpace: a sparse, page-granular store
 * of bytes with a per-page present bit. Pages become present when the host
 * touches them or when the ODP driver resolves a network page fault against
 * them; the kernel can also release pages again, which drives the RNIC
 * invalidation flow (paper Sec. III-A).
 *
 * Storage keeps only the bytes written. A directory of 2 MiB chunks, each
 * a present bitmap plus a flat array of per-page entries, maps any 64-bit
 * address with one small hash lookup and an array index. A page entry is
 * a zero-filled byte buffer that grows geometrically (256 B up to the
 * full page) to cover the highest offset written; bytes of a present page
 * past its buffer read as zero. Touching a page allocates nothing.
 */

#ifndef IBSIM_MEM_ADDRESS_SPACE_HH
#define IBSIM_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ibsim {
namespace mem {

/** Page size used throughout, matching the paper's 4096-byte alignment. */
constexpr std::uint64_t pageSize = 4096;

/** Page index containing a virtual address. */
constexpr std::uint64_t
pageOf(std::uint64_t vaddr)
{
    return vaddr / pageSize;
}

/**
 * A sparse byte-addressable space with per-page presence.
 */
class AddressSpace
{
  public:
    AddressSpace() = default;
    AddressSpace(const AddressSpace&) = delete;
    AddressSpace& operator=(const AddressSpace&) = delete;

    /**
     * Reserve a virtual range and return its base address.
     *
     * Allocation only reserves address space; no page becomes present
     * (malloc'd-but-untouched memory, the state that triggers ODP faults).
     * The base is always page aligned.
     *
     * @throws std::invalid_argument if @p size is 0 or the rounded-up
     *         range does not fit in the remaining 64-bit address space
     *         (either would hand the next caller an aliasing base).
     */
    std::uint64_t alloc(std::uint64_t size);

    /** Whether the page holding @p vaddr is present (backed by a frame). */
    bool present(std::uint64_t vaddr) const;

    /** Make all pages in [vaddr, vaddr + len) present (first touch). */
    void touch(std::uint64_t vaddr, std::uint64_t len);

    /**
     * Make the page holding @p vaddr present.
     *
     * @return true if the page was newly populated.
     */
    bool populatePage(std::uint64_t vaddr);

    /**
     * Release the page holding @p vaddr (kernel reclaim / madvise).
     * Contents are discarded; the page reverts to not-present.
     */
    void releasePage(std::uint64_t vaddr);

    /** Write bytes; pages touched become present. */
    void write(std::uint64_t vaddr, const std::vector<std::uint8_t>& data);

    /**
     * Read bytes. Non-present pages read as zero without becoming
     * present (a simulator-level peek, not a host access).
     */
    std::vector<std::uint8_t> read(std::uint64_t vaddr,
                                   std::uint64_t len) const;

    /** Number of currently present pages. */
    std::size_t presentPages() const { return presentPages_; }

    /**
     * Bytes held in page buffers (directory overhead excluded). A
     * deterministic footprint: each present page counts the buffer
     * covering its highest written offset, rounded up to a power of two
     * of at least 256 B; touched-only pages count 0.
     */
    std::uint64_t storedBytes() const { return storedBytes_; }

    /** Total bytes of reserved address space. */
    std::uint64_t reservedBytes() const { return nextFree_ - base_; }

  private:
    /** The bytes written to one page; owned by its Chunk. */
    struct Frame
    {
        std::uint8_t* bytes = nullptr;  ///< zero-filled, `size` long
        std::uint16_t size = 0;         ///< 0 or 256 .. pageSize
    };

    /** Pages per directory chunk (2 MiB of address space). */
    static constexpr std::uint64_t chunkPages = 512;

    /**
     * One directory chunk. Only present pages hold buffers, so the
     * destructor walks the present bitmap instead of all 512 frames
     * (short-lived two-node clusters tear down a near-empty chunk per
     * node).
     */
    struct Chunk
    {
        Chunk() = default;
        Chunk(const Chunk&) = delete;
        Chunk& operator=(const Chunk&) = delete;
        ~Chunk();

        /** Whether page @p i of this chunk is present. */
        bool
        present(std::uint64_t i) const
        {
            return (presentBits[i / 64] >> (i % 64)) & 1;
        }

        /** Mark page @p i present; returns whether it was not already. */
        bool
        populate(std::uint64_t i)
        {
            std::uint64_t& word = presentBits[i / 64];
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            const bool fresh = (word & bit) == 0;
            word |= bit;
            return fresh;
        }

        Frame frames[chunkPages] = {};
        std::uint64_t presentBits[chunkPages / 64] = {};
    };

    /** The chunk holding page @p page_idx, or nullptr if absent. */
    const Chunk* findChunk(std::uint64_t page_idx) const;

    /** The chunk holding page @p page_idx, created if absent. */
    Chunk& chunk(std::uint64_t page_idx);

    static constexpr std::uint64_t base_ = 0x10000000;
    std::uint64_t nextFree_ = base_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Chunk>> chunks_;
    std::size_t presentPages_ = 0;
    std::uint64_t storedBytes_ = 0;
};

} // namespace mem
} // namespace ibsim

#endif // IBSIM_MEM_ADDRESS_SPACE_HH
