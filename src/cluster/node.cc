#include "cluster/node.hh"

#include <limits>

namespace ibsim {

namespace {

/**
 * Fault resolution slows under flood congestion: the effective latency
 * is scaled by (1 + faultLoadFactor * stale waiters). The driver and RNIC
 * fault machinery are shared resources; Fig. 11a's fault resolved only
 * at ~1 ms with 128 QPs waiting.
 */
constexpr double faultLoadFactor = 0.1;

} // namespace

Node::Node(EventQueue& events, Rng& rng, net::Fabric& fabric,
           std::uint16_t lid, const rnic::DeviceProfile& profile)
    : driver_(events, rng, memory_, profile.faultTiming),
      board_(events, rng, profile.floodQuirk),
      rnic_(std::make_unique<rnic::Rnic>(events, rng, fabric, lid, profile,
                                         memory_, driver_, board_)),
      nextKey_(static_cast<std::uint32_t>(lid) * 100000u + 1)
{
    driver_.setCongestionProbe([this] {
        return 1.0 +
               faultLoadFactor * static_cast<double>(board_.staleCount());
    });
}

void
Node::touch(std::uint64_t addr, std::uint64_t len)
{
    memory_.touch(addr, len);
    // Host-side touches do not map pages into ODP translation tables; the
    // RNIC still faults on its first access (paper Sec. III-A).
}

verbs::MemoryRegion&
Node::registerMemory(std::uint64_t addr, std::uint64_t length,
                     verbs::AccessFlags access)
{
    auto mr = std::make_unique<verbs::MemoryRegion>(nextKey_++, addr,
                                                    length, access,
                                                    memory_);
    verbs::MemoryRegion& ref = *mr;
    mrs_.push_back(std::move(mr));
    rnic_->registerMr(ref);
    return ref;
}

verbs::MemoryRegion&
Node::registerImplicitOdp()
{
    auto mr = std::make_unique<verbs::MemoryRegion>(
        nextKey_++, 0, std::numeric_limits<std::uint64_t>::max(),
        verbs::AccessFlags::implicitOdp(), memory_);
    verbs::MemoryRegion& ref = *mr;
    mrs_.push_back(std::move(mr));
    rnic_->registerMr(ref);
    return ref;
}

void
Node::deregisterMemory(verbs::MemoryRegion& mr)
{
    rnic_->deregisterMr(mr.rkey());
}

verbs::CompletionQueue&
Node::createCq()
{
    cqs_.push_back(std::make_unique<verbs::CompletionQueue>());
    return *cqs_.back();
}

std::uint64_t
Node::totalCompletions() const
{
    std::uint64_t total = 0;
    for (const auto& cq : cqs_)
        total += cq->totalCompletions();
    return total;
}

verbs::QueuePair
Node::createQp(verbs::CompletionQueue& cq, verbs::QpConfig config)
{
    rnic::QpContext& ctx = rnic_->createQp(cq, config);
    return verbs::QueuePair(*rnic_, ctx);
}

void
Node::prefetch(verbs::MemoryRegion& mr, std::uint64_t addr,
               std::uint64_t len)
{
    driver_.prefetch(mr.table(), addr, len);
}

void
Node::invalidate(verbs::MemoryRegion& mr, std::uint64_t addr)
{
    driver_.invalidate(mr.table(), addr);
}

} // namespace ibsim
