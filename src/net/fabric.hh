/**
 * @file
 * The switched fabric connecting RNIC ports.
 *
 * Ports register under a Local IDentifier (LID). send() schedules delivery
 * after the link latency plus serialization delay; packets addressed to an
 * unknown LID vanish silently, exactly the failure mode the paper exploits
 * to measure transport timeouts (Sec. IV-B). Capture taps observe every
 * packet at egress (like ibdump on the sending HCA port) including packets
 * that are subsequently dropped.
 */

#ifndef IBSIM_NET_FABRIC_HH
#define IBSIM_NET_FABRIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/fault_hook.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "simcore/cross_channel.hh"
#include "simcore/event_queue.hh"
#include "simcore/sharded_kernel.hh"
#include "simcore/tap_list.hh"

namespace ibsim {
namespace net {

/**
 * Administrative state of a port (IBA PortState, reduced to what the
 * simulation distinguishes): only `Down` stops traffic.
 */
enum class PortState : std::uint8_t
{
    Up,
    Down,
};

/**
 * A port/path event raised by the fabric toward the attached RNIC — the
 * simulation's equivalent of an IBV_EVENT_PORT_ERR/PORT_ACTIVE async
 * event. Path events are per-peer (one mesh link went down/up); port
 * events cover the whole port.
 */
struct PortEvent
{
    enum class Type : std::uint8_t
    {
        PortUp,
        PortDown,
        PathUp,    ///< link to `peerLid` recovered
        PathDown,  ///< link to `peerLid` cut
    };

    Type type = Type::PortDown;
    std::uint16_t lid = 0;      ///< the port the event is delivered to
    std::uint16_t peerLid = 0;  ///< far end of the link (path events)

    /**
     * True when, at event time, the subnet still has another up link out
     * of this port — i.e. an SM-style reroute around the cut is possible.
     */
    bool redundantPath = false;
};

/**
 * Receiver interface implemented by RNICs.
 */
class PortHandler
{
  public:
    virtual ~PortHandler() = default;

    /** A packet has arrived at this port. */
    virtual void receive(const Packet& pkt) = 0;

    /** An async port/path event for this port (default: ignored). */
    virtual void portEvent(const PortEvent& ev) { (void)ev; }
};

/** Static link parameters of the fabric. */
struct LinkConfig
{
    /** One-way propagation + switching latency. */
    Time latency = Time::us(0.9);

    /** Link bandwidth in bytes per second (56 Gb/s FDR by default). */
    double bandwidthBytesPerSec = 56e9 / 8.0;

    /** Per-packet host/NIC processing overhead added to delivery time. */
    Time perPacketOverhead = Time::ns(50);
};

/**
 * Observer invoked for every packet handed to the fabric, dropped or not.
 */
using CaptureTap = std::function<void(const Packet&, bool dropped)>;

/**
 * Observer invoked on the destination island for every packet that
 * passes ingress (see Fabric::addIngressTap()).
 */
using IngressTap = std::function<void(const Packet&)>;

/**
 * The fabric: LID-addressed delivery with latency and serialization.
 *
 * A fabric is a list of *lanes*, one per ShardedKernel island (a
 * standalone fabric over a bare EventQueue has exactly one). Each lane
 * owns its island's wire-id space, PacketPool, fault hook, link-state
 * replica, counters and outbound channels, and every LID belongs to one
 * lane (lane 0 unless assigned). Single-queue mode is simply the
 * one-lane case.
 *
 * A packet whose source and destination share a lane is scheduled
 * inline on that lane's queue. A cross-lane packet becomes a Parcel in a
 * per-(src, dst) CrossChannel keyed by its *effect* time (earliest
 * arrival plus the per-packet overhead — the first event it can
 * schedule). The destination island drains every channel up to its
 * window horizon before running the window, merging parcels in
 * (arrival, wire-id) order and applying the destination port's ingress
 * serialization max-chain; the kernel's pairwise channel clocks
 * guarantee every parcel at or below the horizon is already visible
 * (DESIGN.md §12.b), so there is no global barrier anywhere on the path.
 * Both the egress and ingress busy-times of a port are only ever touched
 * by that port's island. The fabric forwards each connection's route to
 * the kernel's edge graph (declareRoute(); UD-capable islands declare
 * dense edges), which is what lets distant islands run windows without
 * synchronizing. A fault hook shared across lanes would race at
 * jobs > 1 — use setIslandFaultHook() (chaos::ChaosEngine::install()
 * does).
 */
class Fabric : public ShardedKernel::BarrierAgent
{
  public:
    /** A one-lane fabric over @p events (no kernel). */
    explicit Fabric(EventQueue& events, LinkConfig config = {});

    /**
     * A fabric over @p kernel with one lane per existing island (at
     * least one); installs the fabric as the kernel's BarrierAgent.
     */
    explicit Fabric(ShardedKernel& kernel, LinkConfig config = {});

    /** Register @p handler under @p lid. LIDs must be unique. */
    void attach(std::uint16_t lid, PortHandler& handler);

    /** Remove a port (packets to it then vanish). */
    void detach(std::uint16_t lid);

    /**
     * Send a packet. Ownership of the contents transfers; the fabric stamps
     * wireId/sentAt. Returns the wire id (a dropped packet, or one
     * addressed to an unknown LID, still gets a wire id for capture
     * purposes; 0 is never used). Wire ids are `(lane << 44) | n` with a
     * per-lane counter n starting at 1.
     */
    std::uint64_t send(Packet pkt);

    /**
     * Install the fault-injection hook on every lane (non-owning;
     * nullptr uninstalls). Consulted for every packet that passes the
     * port/link gate; packet loss of any kind is a chaos::FaultInjector
     * stage (DropStage, MatchOnceDropStage, ...). One hook shared by
     * several lanes is only safe at jobs = 1.
     */
    void setFaultHook(FaultHook* hook);

    /** Add a capture tap observing all traffic. */
    TapId addTap(CaptureTap tap);

    /** Unregister a tap added by addTap(). */
    void removeTap(TapId id);

    /**
     * Add an ingress tap. It runs on the destination island, after the
     * destination port's Down gate and before delivery is scheduled: a
     * same-lane packet reaches it inside send(), right after the egress
     * taps; a cross-lane packet reaches it when the destination island
     * drains its channels, in (arrival, wire-id) order, always before
     * the delivery event. Packets dropped anywhere never reach it.
     */
    TapId addIngressTap(IngressTap tap);

    /** Unregister a tap added by addIngressTap(). */
    void removeIngressTap(TapId id);

    /** @{ Port events and link state (see DESIGN.md §13).
     *
     * Link-down windows gate traffic at *egress*: a packet sent while
     * the (src, dst) link is down is dropped at the sending port (taps
     * see it with dropped = true), unless the sending QP was rerouted
     * (Packet::rerouted), in which case it passes and is charged one
     * extra hop of latency for the detour. Packets already past egress
     * when a link cuts still arrive — cutting a link does not vaporize
     * in-flight photons. Every lane keeps its own replica of link state
     * (setLaneLinkState()), toggled by its own scheduled events, so
     * egress decisions never read foreign-island state. Port `Down`
     * state additionally gates ingress at the destination port (checked
     * at send time within a lane, on the owning island across lanes).
     */

    /** Administrative port state (setup/test API; `Down` gates traffic). */
    void setPortState(std::uint16_t lid, PortState state);

    PortState
    portState(std::uint16_t lid) const
    {
        return lid < ports_.size() ? ports_[lid].state : PortState::Up;
    }

    /** Deliver an async event to the handler attached at @p lid. */
    void raisePortEvent(std::uint16_t lid, const PortEvent& ev);

    /** Toggle @p island's replica of the {a, b} link. */
    void setLaneLinkState(std::size_t island, std::uint16_t a,
                          std::uint16_t b, bool up);

    /** Whether @p island's view of the {a, b} link is down. */
    bool laneLinkDown(std::size_t island, std::uint16_t a,
                      std::uint16_t b) const;

    /** Packets dropped by port/link-down gates (subset of totalDropped). */
    std::uint64_t totalPortEventDrops() const;

    /** @} */

    /**
     * Whether a port is attached under @p lid — the dense PortRecord
     * table bounds check. Egress paths that pre-address packets (UD
     * datagrams) consult this to account would-be silent drops.
     */
    bool
    attached(std::uint16_t lid) const
    {
        return lid < ports_.size() && ports_[lid].handler != nullptr;
    }

    /** Total packets handed to send(). */
    std::uint64_t totalSent() const;

    /** Total packets actually delivered. */
    std::uint64_t totalDelivered() const;

    /** Total packets dropped (fault hook, port/link gate or unknown LID). */
    std::uint64_t totalDropped() const;

    /** Extra packets materialized by the fault hook (dups, forged NAKs). */
    std::uint64_t totalInjected() const;

    const LinkConfig& config() const { return config_; }

    /** Lane 0's in-flight packet pool (capacity planning / tests). */
    const PacketPool& packetPool() const { return lanes_.front().pool; }

    /** @{ Lanes and islands (see the class comment). */

    /** Add a kernel island and its lane. Returns the island index. */
    std::size_t addIslandLane();

    /** Assign @p lid to @p island (setup time, before traffic). */
    void assignLid(std::uint16_t lid, std::size_t island);

    /** Island owning @p lid; 0 when unassigned. */
    std::size_t islandOf(std::uint16_t lid) const;

    /** Lanes in the fabric (== the kernel's island count). */
    std::size_t islandCount() const { return lanes_.size(); }

    /**
     * The island executing the current send — valid inside capture taps
     * and receive handlers. Forged packets carry fake source LIDs, so
     * taps must key per-island state on this, not on
     * islandOf(pkt.srcLid).
     */
    std::size_t egressIsland() const;

    /** Island @p island's queue. */
    EventQueue&
    islandEvents(std::size_t island)
    {
        return *lanes_[island].events;
    }

    /** Per-island fault hook (nullptr uninstalls). */
    void setIslandFaultHook(std::size_t island, FaultHook* hook);

    /**
     * Declare to the kernel's edge graph that traffic flows between the
     * islands of the two LIDs, both directions (requests one way, ACKs
     * back). An unassigned destination LID (a timeout experiment's
     * vanishing peer) declares nothing — its packets drop at egress.
     * Same-island routes need no edge. rnic::Rnic calls this on every
     * connect.
     */
    void declareRoute(std::uint16_t src_lid, std::uint16_t dst_lid);

    /**
     * Declare dense edges for @p island — the sound fallback for
     * islands whose destinations are not known at setup (a UD QP names
     * its destination per work request). A no-op with one lane.
     */
    void declareDenseIsland(std::size_t island);

    /** BarrierAgent: inject parcels for @p island with effect
     * <= @p horizon, in (arrival, wire-id) merge order. */
    std::uint64_t flushInbound(std::size_t island, Time horizon) override;

    /** BarrierAgent: earliest buffered parcel effect for @p island. */
    Time inboundEarliest(std::size_t island) override;

    /** BarrierAgent: buffered parcels bound for @p island. */
    std::size_t inboundPending(std::size_t island) override;

    /** @} */

  private:
    /**
     * Per-LID state of the datapath, one cache line per hop: the
     * attached handler plus the egress/ingress link-busy times that used
     * to live in two extra std::maps. LIDs are small, fabric-assigned
     * integers, so the table is a dense vector indexed by LID — the
     * per-packet lookups in send()/transmit() are a few array indexings
     * instead of three red-black-tree walks. Detaching a port clears
     * only the handler; the link-busy times survive re-attachment,
     * exactly like the old always-growing std::map entries did.
     */
    struct PortRecord
    {
        PortHandler* handler = nullptr;
        /** Egress link of this LID is serializing until then. */
        Time egressFreeAt;
        /** Ingress link of this LID is serializing until then. */
        Time ingressFreeAt;
        /** Administrative state; only Down gates traffic. */
        PortState state = PortState::Up;
    };

    /** The record for @p lid, growing the table on first touch. */
    PortRecord& port(std::uint16_t lid);

    /**
     * @{ The lane datapath. A Parcel is a packet in a cross-island
     * channel: arrive0 is its earliest ingress arrival (egress
     * serialization, latency and chaos delay already applied by the
     * source island); the destination island applies its ingress
     * max-chain when it drains the channel, merging parcels from every
     * source lane in (arrive0, wireId) order — a strict total order,
     * because wire ids are unique. Channels are CrossChannels keyed by
     * the parcel's effect time (arrive0 + perPacketOverhead, the first
     * event it can schedule): producer and consumer islands run
     * concurrently under pairwise channel clocks, and the key is what a
     * drain's horizon threshold compares against.
     */
    struct Parcel
    {
        Time arrive0;
        Time serialization;
        std::uint64_t wireId;
        Packet pkt;
    };

    struct Lane
    {
        explicit Lane(EventQueue* ev) : events(ev) {}

        EventQueue* events;
        /**
         * In-flight packets parked between send() and delivery. Delivery
         * callbacks capture only the slot index, so they stay within the
         * event kernel's inline-callback capacity (no allocation per hop)
         * and payload buffers are recycled across packets.
         */
        PacketPool pool;
        FaultHook* hook = nullptr;
        std::uint64_t nextWireId = 1;
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t injected = 0;
        std::uint64_t portEventDrops = 0;
        /** Island-local replica of down links (keys from linkKey()). */
        std::vector<std::uint32_t> downLinks;
        /** Outbound channels, one per destination island (rebuilt, never
         * grown: CrossChannel holds a mutex and must never move). */
        std::vector<CrossChannel<Parcel>> out;
        std::vector<Parcel> inbox;  ///< drain merge scratch
    };

    /** Next wire id of lane @p lane_index. */
    std::uint64_t
    nextWireId(std::size_t lane_index)
    {
        return (static_cast<std::uint64_t>(lane_index) << 44) |
               lanes_[lane_index].nextWireId++;
    }

    /** Schedule one pipeline output of send() (taps, gate, serialize). */
    void transmit(std::size_t lane_index, Packet pkt, Time extra_delay);
    void finalizeIngress(std::size_t dst_island, Packet&& pkt, Time arrive0,
                         Time serialization);
    /** @} */

    static std::uint32_t
    linkKey(std::uint16_t a, std::uint16_t b)
    {
        const std::uint16_t lo = a < b ? a : b;
        const std::uint16_t hi = a < b ? b : a;
        return (static_cast<std::uint32_t>(lo) << 16) | hi;
    }

    /**
     * Egress gate: src-port-Down and link-down checks, applied to
     * genuine endpoint packets before the fault pipeline. Returns false
     * to drop; sets @p detour to the reroute penalty otherwise.
     */
    bool egressAdmits(const std::vector<std::uint32_t>& down_links,
                      const Packet& pkt, Time* detour) const;

    LinkConfig config_;
    std::vector<PortRecord> ports_;
    TapList<CaptureTap> taps_;
    TapList<IngressTap> ingressTaps_;
    /** The kernel driving the lanes (nullptr for a standalone fabric). */
    ShardedKernel* kernel_ = nullptr;
    /** Never empty; a deque keeps Lane addresses stable. */
    std::deque<Lane> lanes_;
    std::vector<std::size_t> islandOfLid_;
};

} // namespace net
} // namespace ibsim

#endif // IBSIM_NET_FABRIC_HH
