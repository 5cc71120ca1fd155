#include "verbs/memory_region.hh"

namespace ibsim {
namespace verbs {

MemoryRegion::MemoryRegion(std::uint32_t key, std::uint64_t addr,
                           std::uint64_t length, AccessFlags access,
                           mem::AddressSpace& memory)
    : key_(key), addr_(addr), length_(length), access_(access),
      memory_(memory), table_(access.onDemand, addr, length)
{
    if (!access.onDemand) {
        // Pinned registration: the host pages are pinned down and the RNIC
        // translation covers the whole region up front.
        memory_.touch(addr, length);
    }
}

bool
MemoryRegion::contains(std::uint64_t addr, std::uint64_t len) const
{
    if (access_.wholeAddressSpace)
        return true;  // implicit ODP spans the whole address space
    // Offsets, not end addresses: addr + len may wrap past 2^64.
    return addr >= addr_ && len <= length_ && addr - addr_ <= length_ - len;
}

} // namespace verbs
} // namespace ibsim
