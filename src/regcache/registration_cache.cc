#include "regcache/registration_cache.hh"

#include "mem/address_space.hh"

namespace ibsim {
namespace regcache {

RegistrationCache::RegistrationCache(Node& node, EventQueue& events,
                                     RegCacheConfig config)
    : node_(node), events_(events), config_(config)
{
}

std::uint64_t
RegistrationCache::pagesOf(std::uint64_t len)
{
    return (len + mem::pageSize - 1) / mem::pageSize;
}

void
RegistrationCache::charge(Time cost)
{
    stats_.managementTime += cost;
    events_.advance(cost);
}

verbs::MemoryRegion&
RegistrationCache::acquire(std::uint64_t addr, std::uint64_t len)
{
    // Hit: any cached region covering the range; refresh its LRU slot.
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (addr >= it->base && addr + len <= it->base + it->length) {
            ++stats_.hits;
            entries_.splice(entries_.begin(), entries_, it);
            return *entries_.front().mr;
        }
    }

    // Miss: register a page-aligned covering region.
    ++stats_.misses;
    Entry entry;
    entry.base = addr - addr % mem::pageSize;
    entry.length = pagesOf(addr + len - entry.base) * mem::pageSize;
    charge(registerBase +
           registerPerPage * static_cast<double>(pagesOf(entry.length)));
    entry.mr = &node_.registerMemory(entry.base, entry.length,
                                     verbs::AccessFlags::pinned());
    ++stats_.registrations;
    pinnedBytes_ += entry.length;
    entries_.push_front(entry);

    enforceCapacity();
    return *entries_.front().mr;
}

void
RegistrationCache::enforceCapacity()
{
    if (config_.capacityBytes == 0)
        return;
    while (pinnedBytes_ > config_.capacityBytes && entries_.size() > 1) {
        // Evict the least recently used region; actual deregistration is
        // deferred into the batch.
        Entry victim = entries_.back();
        entries_.pop_back();
        pinnedBytes_ -= victim.length;
        ++stats_.evictions;
        deregBatch_.push_back(victim);
    }
    drainDeregBatch(/*force=*/false);
}

void
RegistrationCache::drainDeregBatch(bool force)
{
    if (deregBatch_.empty())
        return;
    if (!force && deregBatch_.size() < config_.deregisterBatch)
        return;

    // One base cost for the whole batch (the Zhou et al. amortization),
    // plus per-page unpinning.
    std::uint64_t pages = 0;
    for (const Entry& e : deregBatch_) {
        pages += pagesOf(e.length);
        node_.deregisterMemory(*e.mr);
        ++stats_.deregistrations;
    }
    charge(deregisterBase + deregisterPerPage * static_cast<double>(pages));
    deregBatch_.clear();
}

void
RegistrationCache::flush()
{
    while (!entries_.empty()) {
        Entry victim = entries_.back();
        entries_.pop_back();
        pinnedBytes_ -= victim.length;
        deregBatch_.push_back(victim);
    }
    drainDeregBatch(/*force=*/true);
}

} // namespace regcache
} // namespace ibsim
