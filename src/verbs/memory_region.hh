/**
 * @file
 * Registered memory regions.
 *
 * A MemoryRegion couples a virtual range of the owning node's address space
 * with an RNIC translation table. Pinned regions (the conventional RDMA
 * path) are fully mapped at registration; ODP regions start unmapped and
 * fault pages in on first network access (paper Sec. III).
 */

#ifndef IBSIM_VERBS_MEMORY_REGION_HH
#define IBSIM_VERBS_MEMORY_REGION_HH

#include <cstdint>

#include "mem/address_space.hh"
#include "odp/translation_table.hh"

namespace ibsim {
namespace verbs {

/** Registration access flags (ibv_access_flags subset). */
struct AccessFlags
{
    bool remoteRead = true;
    bool remoteWrite = true;
    bool onDemand = false;  ///< IBV_ACCESS_ON_DEMAND

    /** Conventional pinned registration. */
    static AccessFlags pinned() { return {}; }

    /** ODP registration (explicit ODP on this range). */
    static AccessFlags
    odp()
    {
        AccessFlags f;
        f.onDemand = true;
        return f;
    }

    /**
     * Implicit ODP: one registration covering the whole address space
     * (paper Sec. III), freeing the application from per-buffer
     * registration entirely.
     */
    static AccessFlags
    implicitOdp()
    {
        AccessFlags f;
        f.onDemand = true;
        f.wholeAddressSpace = true;
        return f;
    }

    bool wholeAddressSpace = false;  ///< implicit ODP marker
};

/**
 * One registered region. Created via Node::registerMemory().
 */
class MemoryRegion
{
  public:
    MemoryRegion(std::uint32_t key, std::uint64_t addr, std::uint64_t length,
                 AccessFlags access, mem::AddressSpace& memory);

    MemoryRegion(const MemoryRegion&) = delete;
    MemoryRegion& operator=(const MemoryRegion&) = delete;

    /** Local and remote key (one value serves both, as in mlx5). */
    std::uint32_t lkey() const { return key_; }
    std::uint32_t rkey() const { return key_; }

    std::uint64_t addr() const { return addr_; }
    std::uint64_t length() const { return length_; }
    const AccessFlags& access() const { return access_; }
    bool odp() const { return access_.onDemand; }

    /** Whether [addr, addr+len) lies inside the region. */
    bool contains(std::uint64_t addr, std::uint64_t len) const;

    /** Whether this is an implicit-ODP whole-address-space region. */
    bool implicit() const { return access_.wholeAddressSpace; }

    odp::TranslationTable& table() { return table_; }
    const odp::TranslationTable& table() const { return table_; }

    mem::AddressSpace& memory() { return memory_; }

  private:
    std::uint32_t key_;
    std::uint64_t addr_;
    std::uint64_t length_;
    AccessFlags access_;
    mem::AddressSpace& memory_;
    odp::TranslationTable table_;
};

} // namespace verbs
} // namespace ibsim

#endif // IBSIM_VERBS_MEMORY_REGION_HH
