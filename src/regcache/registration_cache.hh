/**
 * @file
 * Pin-down registration cache — the conventional alternative to ODP.
 *
 * The paper's introduction motivates ODP by the cost of manual memory
 * registration: pinning is expensive at runtime, leaving memory registered
 * wastes physical memory, and the standard compromise is a pin-down cache
 * (Tezuka et al. [16]) with LRU replacement, optionally batching
 * deregistrations (Zhou et al. [15]). This module implements that
 * baseline over the simulator's verbs API so ODP can be compared against
 * the thing it replaces (bench_ablation_regcache).
 *
 * Registration costs follow the published breakdowns (Mietke et al. [13]):
 * a fixed syscall/driver cost plus a per-page pinning cost, and a cheaper
 * per-page deregistration. acquire() advances virtual time by the modeled
 * cost, so call it from harness level (not from inside event callbacks).
 */

#ifndef IBSIM_REGCACHE_REGISTRATION_CACHE_HH
#define IBSIM_REGCACHE_REGISTRATION_CACHE_HH

#include <cstdint>
#include <list>
#include <vector>

#include "cluster/node.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace regcache {

/** @{ Registration cost: base syscall + per-page pinning. */
inline constexpr Time registerBase = Time::us(30);
inline constexpr Time registerPerPage = Time::us(1.5);
/** @} */

/** @{ Deregistration cost (unpinning is cheaper than pinning). */
inline constexpr Time deregisterBase = Time::us(15);
inline constexpr Time deregisterPerPage = Time::us(0.6);
/** @} */

/** Policy of the cache. */
struct RegCacheConfig
{
    /** Pinned-bytes budget; LRU eviction beyond it. 0 = unbounded. */
    std::uint64_t capacityBytes = 64ull << 20;

    /**
     * Evicted regions deregister lazily in batches of this size,
     * amortizing the base cost (Zhou et al.).
     */
    std::size_t deregisterBatch = 8;
};

/** Counters for the trade-off analysis. */
struct RegCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t registrations = 0;
    std::uint64_t deregistrations = 0;
    /** Virtual time spent registering/deregistering. */
    Time managementTime;
};

/**
 * LRU pin-down cache of registered regions on one node.
 */
class RegistrationCache
{
  public:
    RegistrationCache(Node& node, EventQueue& events,
                      RegCacheConfig config = {});

    RegistrationCache(const RegistrationCache&) = delete;
    RegistrationCache& operator=(const RegistrationCache&) = delete;

    /**
     * Return a pinned MR covering [addr, addr + len), registering one
     * (page-aligned) if no cached region covers the range. Advances
     * virtual time by the modeled management cost.
     */
    verbs::MemoryRegion& acquire(std::uint64_t addr, std::uint64_t len);

    /** Flush everything (deregisters all cached regions). */
    void flush();

    /** Bytes currently pinned by cached regions. */
    std::uint64_t pinnedBytes() const { return pinnedBytes_; }

    std::size_t cachedRegions() const { return entries_.size(); }
    const RegCacheStats& stats() const { return stats_; }
    const RegCacheConfig& config() const { return config_; }

  private:
    struct Entry
    {
        std::uint64_t base = 0;
        std::uint64_t length = 0;
        verbs::MemoryRegion* mr = nullptr;
    };

    /** Charge management time against the virtual clock. */
    void charge(Time cost);

    /** Evict LRU entries until the budget holds; batch deregisters. */
    void enforceCapacity();

    /** Deregister the pending batch if it is full (or @p force). */
    void drainDeregBatch(bool force);

    static std::uint64_t pagesOf(std::uint64_t len);

    Node& node_;
    EventQueue& events_;
    RegCacheConfig config_;
    std::list<Entry> entries_;  ///< front = most recently used
    std::vector<Entry> deregBatch_;
    std::uint64_t pinnedBytes_ = 0;
    RegCacheStats stats_;
};

} // namespace regcache
} // namespace ibsim

#endif // IBSIM_REGCACHE_REGISTRATION_CACHE_HH
