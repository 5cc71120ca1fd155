#include "net/fabric.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simcore/log.hh"

namespace ibsim {
namespace net {

namespace {

log::Component traceFabric("fabric");

/**
 * Island executing the current send()/receive chain. One value per
 * worker thread: each island runs whole windows on one worker, and the
 * value is re-stamped at every send, so nested sends (a receive handler
 * answering) always see their own island.
 */
thread_local std::size_t tlsEgressIsland = 0;

} // namespace

Fabric::Fabric(EventQueue& events, LinkConfig config) : config_(config)
{
    lanes_.emplace_back(&events);
    lanes_.front().out = std::vector<CrossChannel<Parcel>>(1);
}

Fabric::Fabric(ShardedKernel& kernel, LinkConfig config)
    : config_(config), kernel_(&kernel)
{
    assert(kernel.islandCount() >= 1 && "a fabric needs one lane");
    for (std::size_t i = 0; i < kernel.islandCount(); ++i)
        lanes_.emplace_back(&kernel.island(i));
    for (Lane& lane : lanes_)
        lane.out = std::vector<CrossChannel<Parcel>>(lanes_.size());
    kernel.setBarrierAgent(this);
}

Fabric::PortRecord&
Fabric::port(std::uint16_t lid)
{
    if (lid >= ports_.size())
        ports_.resize(static_cast<std::size_t>(lid) + 1);
    return ports_[lid];
}

void
Fabric::attach(std::uint16_t lid, PortHandler& handler)
{
    PortRecord& record = port(lid);
    assert(record.handler == nullptr && "duplicate LID");
    record.handler = &handler;
}

void
Fabric::detach(std::uint16_t lid)
{
    if (lid < ports_.size())
        ports_[lid].handler = nullptr;
}

void
Fabric::setFaultHook(FaultHook* hook)
{
    for (Lane& lane : lanes_)
        lane.hook = hook;
}

TapId
Fabric::addTap(CaptureTap tap)
{
    return taps_.add(std::move(tap));
}

void
Fabric::removeTap(TapId id)
{
    taps_.remove(id);
}

TapId
Fabric::addIngressTap(IngressTap tap)
{
    return ingressTaps_.add(std::move(tap));
}

void
Fabric::removeIngressTap(TapId id)
{
    ingressTaps_.remove(id);
}

void
Fabric::setPortState(std::uint16_t lid, PortState state)
{
    port(lid).state = state;
}

void
Fabric::raisePortEvent(std::uint16_t lid, const PortEvent& ev)
{
    if (attached(lid))
        ports_[lid].handler->portEvent(ev);
}

void
Fabric::setLaneLinkState(std::size_t island, std::uint16_t a,
                         std::uint16_t b, bool up)
{
    assert(island < lanes_.size());
    std::vector<std::uint32_t>& set = lanes_[island].downLinks;
    const std::uint32_t key = linkKey(a, b);
    auto it = std::find(set.begin(), set.end(), key);
    if (!up && it == set.end()) {
        set.push_back(key);
    } else if (up && it != set.end()) {
        *it = set.back();
        set.pop_back();
    }
}

bool
Fabric::laneLinkDown(std::size_t island, std::uint16_t a,
                     std::uint16_t b) const
{
    const std::vector<std::uint32_t>& set = lanes_[island].downLinks;
    return std::find(set.begin(), set.end(), linkKey(a, b)) != set.end();
}

bool
Fabric::egressAdmits(const std::vector<std::uint32_t>& down_links,
                     const Packet& pkt, Time* detour) const
{
    *detour = Time();
    if (pkt.srcLid < ports_.size() &&
        ports_[pkt.srcLid].state == PortState::Down)
        return false;
    if (!down_links.empty() &&
        std::find(down_links.begin(), down_links.end(),
                  linkKey(pkt.srcLid, pkt.dstLid)) != down_links.end()) {
        if (!pkt.rerouted)
            return false;
        // SM reroute around the cut link: one extra hop of latency.
        *detour = config_.latency;
    }
    return true;
}

std::uint64_t
Fabric::totalPortEventDrops() const
{
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_)
        total += lane.portEventDrops;
    return total;
}

std::size_t
Fabric::addIslandLane()
{
    assert(kernel_ != nullptr && kernel_->islandCount() == lanes_.size());
    const std::size_t index = kernel_->addIsland();
    lanes_.emplace_back(&kernel_->island(index));
    for (Lane& lane : lanes_)
        lane.out = std::vector<CrossChannel<Parcel>>(lanes_.size());
    return index;
}

void
Fabric::assignLid(std::uint16_t lid, std::size_t island)
{
    assert(island < lanes_.size());
    if (lid >= islandOfLid_.size())
        islandOfLid_.resize(static_cast<std::size_t>(lid) + 1, 0);
    islandOfLid_[lid] = island;
    port(lid);  // pre-grow the port table: no resizing once traffic runs
}

std::size_t
Fabric::islandOf(std::uint16_t lid) const
{
    return lid < islandOfLid_.size() ? islandOfLid_[lid] : 0;
}

std::size_t
Fabric::egressIsland() const
{
    return tlsEgressIsland;
}

void
Fabric::setIslandFaultHook(std::size_t island, FaultHook* hook)
{
    assert(island < lanes_.size());
    lanes_[island].hook = hook;
}

std::uint64_t
Fabric::send(Packet pkt)
{
    const std::size_t laneIndex = islandOf(pkt.srcLid);
    Lane& lane = lanes_[laneIndex];
    tlsEgressIsland = laneIndex;

    // Per-lane wire-id spaces: the island in the high bits keeps ids
    // globally unique (and the barrier merge a strict total order)
    // without any cross-island counter.
    pkt.wireId = nextWireId(laneIndex);
    pkt.sentAt = lane.events->now();
    ++lane.sent;

    // Port/link gate against this island's own link-state replica: the
    // flap driver toggles each endpoint's replica from events on that
    // endpoint's island, so this read never crosses islands.
    Time detour;
    if (!egressAdmits(lane.downLinks, pkt, &detour)) {
        ++lane.dropped;
        ++lane.portEventDrops;
        for (const auto& tap : taps_)
            tap(pkt, true);
        IBSIM_TRACE(traceFabric, lane.events->now(),
                    pkt.str() + "  ** DROPPED (link down) **");
        return pkt.wireId;
    }

    if (lane.hook != nullptr) {
        std::vector<FaultHook::Delivery> out;
        lane.hook->processPacket(pkt, lane.events->now(), out);
        if (out.empty()) {
            ++lane.dropped;
            for (const auto& tap : taps_)
                tap(pkt, true);
            IBSIM_TRACE(traceFabric, lane.events->now(),
                        pkt.str() + "  ** DROPPED (chaos) **");
            return pkt.wireId;
        }
        const std::uint64_t id = pkt.wireId;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (i == 0) {
                out[i].pkt.wireId = id;
            } else {
                out[i].pkt.wireId = nextWireId(laneIndex);
                ++lane.injected;
            }
            out[i].pkt.sentAt = lane.events->now();
            transmit(laneIndex, std::move(out[i].pkt),
                     out[i].extraDelay + detour);
        }
        return id;
    }

    const std::uint64_t id = pkt.wireId;
    transmit(laneIndex, std::move(pkt), detour);
    return id;
}

void
Fabric::transmit(std::size_t lane_index, Packet pkt, Time extra_delay)
{
    Lane& lane = lanes_[lane_index];
    const std::size_t dstIsland = islandOf(pkt.dstLid);
    const bool unknownLid = pkt.dstLid >= ports_.size() ||
                            ports_[pkt.dstLid].handler == nullptr;
    // A destination port's state belongs to its island: within the lane
    // a Down port drops the packet here, in the taps' view; across lanes
    // the owning island's ingress gate (finalizeIngress) drops it late.
    const bool portDown = !unknownLid && dstIsland == lane_index &&
                          ports_[pkt.dstLid].state == PortState::Down;

    for (const auto& tap : taps_)
        tap(pkt, unknownLid || portDown);

    IBSIM_TRACE(traceFabric, lane.events->now(),
                pkt.str() +
                    (unknownLid || portDown ? "  ** DROPPED **" : ""));

    if (unknownLid || portDown) {
        ++lane.dropped;
        if (portDown)
            ++lane.portEventDrops;
        return;
    }

    const Time serialization = Time::sec(
        static_cast<double>(pkt.wireSize()) / config_.bandwidthBytesPerSec);

    // Per-port serialization: back-to-back packets from one port (or
    // into one port) queue behind each other; disjoint port pairs do
    // not contend. Chaos extra delay models switch-internal queueing, so
    // it lands between egress serialization and ingress arrival. The
    // egress max-chain runs on the source port — owned by this island,
    // unless the packet was forged with a foreign or unknown source LID
    // (ForgedNakStage): then it "appears from the wire" at the executing
    // island with no egress queueing, keeping every PortRecord
    // single-island-owned.
    Time depart;
    if (pkt.srcLid < ports_.size() && islandOf(pkt.srcLid) == lane_index) {
        PortRecord& src = ports_[pkt.srcLid];
        const Time start = std::max(lane.events->now(), src.egressFreeAt);
        src.egressFreeAt = start + serialization;
        depart = src.egressFreeAt;
    } else {
        depart = lane.events->now() + serialization;
    }
    const Time arrive0 = depart + config_.latency + extra_delay;

    if (dstIsland == lane_index) {
        finalizeIngress(dstIsland, std::move(pkt), arrive0, serialization);
    } else {
        assert(kernel_->hasEdge(lane_index, dstIsland) &&
               "cross-island send along an undeclared route");
        // Keyed by effect time: the first event this parcel can schedule
        // at the destination (ingress chaining only pushes it later).
        const Time effect = arrive0 + config_.perPacketOverhead;
        const std::uint64_t wireId = pkt.wireId;
        lane.out[dstIsland].push(
            effect.toNs(),
            Parcel{arrive0, serialization, wireId, std::move(pkt)});
    }
}

void
Fabric::finalizeIngress(std::size_t dst_island, Packet&& pkt, Time arrive0,
                        Time serialization)
{
    Lane& dst = lanes_[dst_island];
    PortRecord& rec = ports_[pkt.dstLid];
    if (rec.state == PortState::Down) {
        // Administrative ingress gate for cross-island parcels, checked
        // on the owning island. The egress tap already saw the packet as
        // delivered; this late drop models a port that died while the
        // packet was in flight.
        ++dst.dropped;
        ++dst.portEventDrops;
        return;
    }
    for (const auto& tap : ingressTaps_)
        tap(pkt);
    PortHandler* handler = rec.handler;
    const Time arrive = std::max(arrive0, rec.ingressFreeAt);
    rec.ingressFreeAt = arrive + serialization;
    const Time deliverAt = arrive + config_.perPacketOverhead;

    // Park the packet in the pool and capture only its slot index: the
    // payload moves — no byte copy, and for the empty-payload flood
    // packets no allocator traffic at all.
    const std::uint32_t slot = dst.pool.acquire();
    dst.pool.at(slot) = std::move(pkt);

    const auto island = static_cast<std::uint32_t>(dst_island);
    auto deliver_cb = [this, island, handler, slot] {
        Lane& lane = lanes_[island];
        ++lane.delivered;
        tlsEgressIsland = island;
        handler->receive(lane.pool.at(slot));
        lane.pool.release(slot);
    };
    static_assert(EventQueue::Callback::storesInline<decltype(deliver_cb)>,
                  "delivery closure must not allocate");
    dst.events->schedule(deliverAt, std::move(deliver_cb));
}

std::uint64_t
Fabric::flushInbound(std::size_t island, Time horizon)
{
    // Drain every parcel whose effect fits below the window horizon.
    // The kernel only passes a horizon at or below the island's safe
    // channel-clock bound, which guarantees all such parcels are already
    // visible — so the drained set, and hence the merge below, is a pure
    // function of virtual state (deterministic at any worker count).
    Lane& dst = lanes_[island];
    std::vector<Parcel>& in = dst.inbox;
    in.clear();
    const std::int64_t threshold = horizon.toNs();
    const Time overhead = config_.perPacketOverhead;
    // Only in-neighbor lanes can hold parcels for this island (cross-
    // island sends along undeclared routes assert in transmit()), so
    // the scan skips the rest of the mesh.
    for (std::uint32_t src_index : kernel_->inNeighbors(island)) {
        lanes_[src_index].out[island].drainUpTo(
            threshold,
            [overhead](const Parcel& p) {
                return (p.arrive0 + overhead).toNs();
            },
            in);
    }
    if (in.empty())
        return 0;

    // Canonical merge order: (arrival, wire-id) is a strict total order
    // (wire ids are unique), so the ingress max-chain below is identical
    // whatever the worker count or source-lane completion order was.
    // Effect order equals arrival order (a constant offset apart), so
    // successive drains inject in globally sorted order too.
    std::sort(in.begin(), in.end(), [](const Parcel& a, const Parcel& b) {
        return a.arrive0 != b.arrive0 ? a.arrive0 < b.arrive0
                                      : a.wireId < b.wireId;
    });
    for (Parcel& parcel : in) {
        finalizeIngress(island, std::move(parcel.pkt), parcel.arrive0,
                        parcel.serialization);
    }
    return in.size();
}

Time
Fabric::inboundEarliest(std::size_t island)
{
    // Probed on every island step: restrict to in-neighbor lanes (the
    // only ones that can feed this island) — on a sparse mesh this turns
    // an all-islands sweep into a handful of atomic loads.
    std::int64_t earliest = CrossChannel<Parcel>::kEmpty;
    for (std::uint32_t src_index : kernel_->inNeighbors(island))
        earliest = std::min(earliest,
                            lanes_[src_index].out[island].minKey());
    return earliest == CrossChannel<Parcel>::kEmpty ? Time::max()
                                                    : Time::fromNs(earliest);
}

std::size_t
Fabric::inboundPending(std::size_t island)
{
    std::size_t total = 0;
    for (Lane& src : lanes_)
        total += src.out[island].size();
    return total;
}

void
Fabric::declareRoute(std::uint16_t src_lid, std::uint16_t dst_lid)
{
    if (dst_lid >= islandOfLid_.size())
        return;  // never-assigned LID: packets to it drop at egress
    const std::size_t src = islandOf(src_lid);
    const std::size_t dst = islandOf(dst_lid);
    if (src == dst)
        return;  // same-lane traffic is inline, no clock involved
    kernel_->declareEdge(src, dst);
    kernel_->declareEdge(dst, src);
}

void
Fabric::declareDenseIsland(std::size_t island)
{
    if (lanes_.size() > 1)
        kernel_->declareDense(island);
}

std::uint64_t
Fabric::totalSent() const
{
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_)
        total += lane.sent;
    return total;
}

std::uint64_t
Fabric::totalDelivered() const
{
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_)
        total += lane.delivered;
    return total;
}

std::uint64_t
Fabric::totalDropped() const
{
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_)
        total += lane.dropped;
    return total;
}

std::uint64_t
Fabric::totalInjected() const
{
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_)
        total += lane.injected;
    return total;
}

} // namespace net
} // namespace ibsim
