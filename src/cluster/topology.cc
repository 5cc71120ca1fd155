#include "cluster/topology.hh"

#include <algorithm>
#include <cassert>

#include "exp/seed_stream.hh"

namespace ibsim {
namespace chaos {

Topology::Topology(std::size_t node_count, std::uint64_t seed)
    : nodes_(node_count), seed_(seed)
{
    // One RNG per unordered link, each on a disjoint SeedStream index so
    // link schedules are pairwise independent and adding traffic on one
    // link never perturbs another's windows.
    const exp::SeedStream seeds("chaos.topology", seed);
    const std::size_t link_count =
        node_count < 2 ? 0 : node_count * (node_count - 1) / 2;
    links_.reserve(link_count);
    for (std::size_t i = 0; i < link_count; ++i)
        links_.emplace_back(FlapPlan{}, seeds.trialSeed(i, 0));
}

bool
Topology::inMesh(std::uint16_t lid_a, std::uint16_t lid_b) const
{
    return lid_a >= 1 && lid_b >= 1 && lid_a != lid_b &&
           lid_a <= nodes_ && lid_b <= nodes_;
}

std::size_t
Topology::linkIndex(std::uint16_t lid_a, std::uint16_t lid_b) const
{
    assert(inMesh(lid_a, lid_b));
    // Triangular indexing of the unordered pair {lo, hi} with
    // 1 <= lo < hi <= N: rows of decreasing length, row lo first.
    const std::size_t lo = std::min(lid_a, lid_b);
    const std::size_t hi = std::max(lid_a, lid_b);
    const std::size_t row_start =
        (lo - 1) * nodes_ - (lo - 1) * lo / 2;
    return row_start + (hi - lo - 1);
}

void
Topology::setDefaultPlan(const FlapPlan& plan)
{
    for (LinkSchedule& link : links_)
        link.setPlan(plan);
}

void
Topology::setLinkPlan(std::uint16_t lid_a, std::uint16_t lid_b,
                      const FlapPlan& plan)
{
    links_.at(linkIndex(lid_a, lid_b)).setPlan(plan);
}

bool
Topology::linkUp(std::uint16_t src, std::uint16_t dst, Time now)
{
    if (!inMesh(src, dst))
        return true;
    LinkSchedule& link = links_[linkIndex(src, dst)];

    // The schedule anchors at virtual time zero and advances window by
    // window; each window draws exactly once from the link's RNG, so the
    // sequence is a pure function of the seed no matter when (or how
    // often) the link is queried.
    return link.upAt(now);
}

bool
Topology::linkEnabled(std::uint16_t lid_a, std::uint16_t lid_b) const
{
    return inMesh(lid_a, lid_b) &&
           links_[linkIndex(lid_a, lid_b)].enabled();
}

LinkSchedule
Topology::makeSchedule(std::uint16_t lid_a, std::uint16_t lid_b) const
{
    assert(inMesh(lid_a, lid_b));
    const std::size_t idx = linkIndex(lid_a, lid_b);
    const exp::SeedStream seeds("chaos.topology", seed_);
    return LinkSchedule(links_[idx].plan(), seeds.trialSeed(idx, 0));
}

std::uint64_t
Topology::totalFlaps() const
{
    std::uint64_t total = 0;
    for (const LinkSchedule& link : links_)
        total += link.downTransitions();
    return total;
}

void
TopologyStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                     Time now, Rng& /*rng*/, InjectorStats& stats)
{
    auto it = std::remove_if(
        deliveries.begin(), deliveries.end(),
        [&](const net::FaultHook::Delivery& d) {
            if (topology_.linkUp(d.pkt.srcLid, d.pkt.dstLid, now))
                return false;
            ++stats.flapDropped;
            ++stats.dropped;
            return true;
        });
    deliveries.erase(it, deliveries.end());
}

} // namespace chaos
} // namespace ibsim
