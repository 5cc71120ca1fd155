/**
 * @file
 * Ablation: memory management strategies — the trade-off that motivates
 * ODP (paper Sec. I and Sec. VIII-A).
 *
 * A client WRITEs randomly-chosen buffers from a large pool to a server.
 * Strategies compared:
 *
 *   register-per-op : register + deregister around every operation
 *                     (the naive baseline of Frey & Alonso);
 *   pin-down cache  : LRU cache of pinned regions (Tezuka et al.) with
 *                     batched deregistration (Zhou et al.);
 *   pinned-all      : pre-pin the whole pool (fast, maximal memory);
 *   explicit ODP    : register once on demand, pay page faults instead.
 *
 * Reported: total time, management/fault overhead, and pinned bytes —
 * the runtime-vs-memory trade-off ODP aims to dissolve.
 */

#include "suite.hh"

#include <functional>
#include <memory>

#include "cluster/cluster.hh"
#include "mem/address_space.hh"
#include "regcache/registration_cache.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

constexpr std::uint64_t poolPages = 512;     // 2 MiB pool
constexpr std::uint64_t poolBytes = poolPages * mem::pageSize;
constexpr std::uint32_t opBytes = 256;

struct RunResult
{
    double totalMs = 0;
    double overheadMs = 0;  // registration or fault handling
    std::uint64_t pinnedPages = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
};

/** Issue @p ops WRITEs of random pool buffers using a strategy functor. */
template <typename AcquireMr>
RunResult
runStrategy(std::size_t ops, std::uint64_t seed, AcquireMr&& acquire_mr,
            const std::function<double()>& overhead_ms,
            const std::function<std::uint64_t()>& pinned_pages)
{
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2, seed);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);

    const std::uint64_t pool = client.alloc(poolBytes);
    client.memory().touch(pool, poolBytes);  // data exists host-side
    const std::uint64_t dst = server.alloc(poolBytes);
    auto& smr = server.registerMemory(dst, poolBytes,
                                      verbs::AccessFlags::pinned());

    const Time start = cluster.now();
    for (std::size_t i = 0; i < ops; ++i) {
        const std::uint64_t page = static_cast<std::uint64_t>(
            cluster.rng().uniformInt(0, poolPages - 1));
        const std::uint64_t addr = pool + page * mem::pageSize;
        verbs::MemoryRegion& mr =
            acquire_mr(cluster, client, addr, opBytes);
        cqp.postWrite(addr, mr.lkey(), dst + page * mem::pageSize,
                      smr.rkey(), opBytes, i);
        cluster.runUntil(
            [&] { return ccq.totalCompletions() >= i + 1; },
            cluster.now() + Time::sec(5));
    }

    RunResult r;
    r.totalMs = (cluster.now() - start).toMs();
    r.overheadMs = overhead_ms();
    r.pinnedPages = pinned_pages();
    return r;
}

RunResult
runRegisterPerOp(std::size_t ops, std::uint64_t seed)
{
    Time mgmt;
    return runStrategy(
        ops, seed,
        [&](Cluster& cluster, Node& client, std::uint64_t addr,
            std::uint64_t len) -> verbs::MemoryRegion& {
            const Time cost =
                regcache::registerBase + regcache::registerPerPage +
                regcache::deregisterBase + regcache::deregisterPerPage;
            mgmt += cost;
            cluster.advance(cost);
            auto& mr = client.registerMemory(
                addr - addr % mem::pageSize, mem::pageSize,
                verbs::AccessFlags::pinned());
            (void)len;
            return mr;
        },
        [&] { return mgmt.toMs(); }, [] { return 1ull; });
}

RunResult
runPinDownCache(std::size_t ops, std::uint64_t seed)
{
    std::unique_ptr<regcache::RegistrationCache> cache;
    auto r = runStrategy(
        ops, seed,
        [&](Cluster& cluster, Node& client, std::uint64_t addr,
            std::uint64_t len) -> verbs::MemoryRegion& {
            if (!cache) {
                regcache::RegCacheConfig config;
                config.capacityBytes = poolBytes / 4;
                cache = std::make_unique<regcache::RegistrationCache>(
                    client, cluster.events(), config);
            }
            return cache->acquire(addr, len);
        },
        [&] { return cache->stats().managementTime.toMs(); },
        [&] { return cache->pinnedBytes() / mem::pageSize; });
    r.cacheHits = cache->stats().hits;
    r.cacheMisses = cache->stats().misses;
    r.cacheEvictions = cache->stats().evictions;
    return r;
}

RunResult
runPinnedAll(std::size_t ops, std::uint64_t seed)
{
    verbs::MemoryRegion* pool_mr = nullptr;
    Time mgmt;
    return runStrategy(
        ops, seed,
        [&](Cluster& cluster, Node& client, std::uint64_t addr,
            std::uint64_t len) -> verbs::MemoryRegion& {
            (void)addr;
            (void)len;
            if (!pool_mr) {
                const Time cost =
                    regcache::registerBase +
                    regcache::registerPerPage *
                        static_cast<double>(poolPages);
                mgmt += cost;
                cluster.advance(cost);
                // The pool is the client's first allocation.
                pool_mr = &client.registerMemory(
                    0x10000000, poolBytes, verbs::AccessFlags::pinned());
            }
            return *pool_mr;
        },
        [&] { return mgmt.toMs(); }, [] { return poolPages; });
}

RunResult
runExplicitOdp(std::size_t ops, std::uint64_t seed)
{
    verbs::MemoryRegion* pool_mr = nullptr;
    Node* client_node = nullptr;
    return runStrategy(
        ops, seed,
        [&](Cluster&, Node& client, std::uint64_t addr,
            std::uint64_t len) -> verbs::MemoryRegion& {
            (void)addr;
            (void)len;
            client_node = &client;
            if (!pool_mr) {
                pool_mr = &client.registerMemory(
                    0x10000000, poolBytes, verbs::AccessFlags::odp());
            }
            return *pool_mr;
        },
        [&] {
            // Fault overhead estimate: resolved faults x mid-band
            // latency.
            return 0.625 * static_cast<double>(
                               client_node->driver()
                                   .stats()
                                   .faultsResolved);
        },
        [] { return 0ull; });
}

} // namespace

void
registerAblationRegcache(exp::Registry& registry)
{
    registry.add(
        {"ablation_regcache", "memory management strategy trade-offs",
         [](const exp::RunContext& ctx) {
             const std::size_t ops = ctx.trials(2000, 500);

             exp::Sweep sweep;
             sweep.axis("strategy",
                        std::vector<std::string>{
                            "register-per-op", "pin-down cache",
                            "pinned-all", "explicit ODP"});

             auto result = ctx.runner("ablation_regcache").run(
                 sweep, 1,
                 [ops](const exp::Cell& cell, std::uint64_t seed) {
                     RunResult r;
                     switch (cell.valueIndex("strategy")) {
                     case 0: r = runRegisterPerOp(ops, seed); break;
                     case 1: r = runPinDownCache(ops, seed); break;
                     case 2: r = runPinnedAll(ops, seed); break;
                     default: r = runExplicitOdp(ops, seed); break;
                     }
                     exp::Metrics m;
                     m.set("total_ms", r.totalMs)
                         .set("overhead_ms", r.overheadMs)
                         .set("pinned_pages",
                              static_cast<double>(r.pinnedPages));
                     if (cell.valueIndex("strategy") == 1) {
                         m.set("cache_hits",
                               static_cast<double>(r.cacheHits))
                             .set("cache_misses",
                                  static_cast<double>(r.cacheMisses))
                             .set("cache_evictions",
                                  static_cast<double>(
                                      r.cacheEvictions));
                     }
                     return m;
                 });

             auto sink = ctx.sink("ablation_regcache");
             sink.table(
                 "Ablation: memory management strategies (" +
                     std::to_string(ops) +
                     " random 256-B WRITEs over a " +
                     std::to_string(poolPages) + "-page pool)",
                 result,
                 {exp::col("total_ms", exp::Stat::Mean, 2, "total_ms"),
                  exp::col("overhead_ms", exp::Stat::Mean, 2,
                           "overhead_ms"),
                  exp::col("pinned_pages", exp::Stat::Mean, 0,
                           "pinned_pages")});

             const auto& cache_cell = result.cells[1];
             if (cache_cell.hasMetric("cache_hits")) {
                 char line[160];
                 std::snprintf(
                     line, sizeof(line),
                     "    (cache: %.0f hits, %.0f misses, %.0f "
                     "evictions)",
                     cache_cell.metric("cache_hits").mean(),
                     cache_cell.metric("cache_misses").mean(),
                     cache_cell.metric("cache_evictions").mean());
                 sink.note(line);
             }
             sink.note(
                 "The classic trade-off (paper Sec. I): per-op "
                 "registration pays pinning on the\ncritical path; "
                 "caches trade pinned memory for hit rate; ODP pins "
                 "nothing and\npays page faults instead -- until the "
                 "pitfalls strike (see the other benches).");
         }});
}

} // namespace bench
} // namespace ibsim
