/**
 * @file
 * Port-event chaos: eager link-state events and faults-during-faults.
 *
 * TopologyStage models flaps as silent per-packet drops — the transport
 * sees nothing but missing packets. Real fabrics also *tell* the HCA:
 * the SM sweeps, ports report PORT_ERR/PORT_ACTIVE async events, and
 * recovery machinery (QP re-arm, APM/SM reroute) keys off them.
 * PortEventDriver converts a chaos::Topology's per-link flap schedules
 * into scheduled port-down/port-up *events*: at each window boundary it
 * toggles the fabric's link state (packets then drop at the sending
 * port, not in a pipeline stage) and raises a net::PortEvent toward both
 * endpoints, which rnic::Rnic translates into verbs::AsyncEvents and —
 * profile-gated — into QP recovery.
 *
 * Every endpoint's event chain runs on its own island's queue and
 * toggles only that island's link-state replica, the same
 * fork-the-schedule trick ChaosEngine::install() plays with
 * TopologyStage replicas: LinkSchedule is a pure function of (plan,
 * seed, time), so per-island copies replay bit-identical windows at any
 * worker count.
 *
 * CombinedStormStage layers faults *during* faults: while a node's links
 * are inside a down window, it fires ODP invalidation storms against the
 * node's translation table and clamps its CQ capacity — the
 * link-recovery machinery then runs concurrently with page-fault storms
 * and completion pressure, which is where recovery bugs actually live.
 */

#ifndef IBSIM_CHAOS_PORT_EVENTS_HH
#define IBSIM_CHAOS_PORT_EVENTS_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/topology.hh"
#include "net/fabric.hh"
#include "odp/odp_driver.hh"
#include "odp/translation_table.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "verbs/completion_queue.hh"

namespace ibsim {
namespace chaos {

/**
 * Drives a Topology's flap schedules as scheduled port events. Two event
 * chains exist per flapping link — one per endpoint — each owning a
 * LinkSchedule replica; each chain lives on its endpoint's island queue
 * and touches only island-owned state (its own lane's link replica, its
 * own RNIC), so the event sequence is bit-identical at any job count. Non-owning: fabric and topology must
 * outlive the driver.
 */
class PortEventDriver
{
  public:
    PortEventDriver(net::Fabric& fabric, Topology& topology);

    /**
     * Run each endpoint's chains on that endpoint's island queue
     * (fabric.islandEvents(islandOf(lid))). Call after every LID is
     * assigned and before the kernel runs.
     */
    void start();

    /** Completed down windows across links (each link counted once). */
    std::uint64_t linkFlaps() const;

    /** Port events raised toward RNICs (both endpoints, both edges). */
    std::uint64_t eventsRaised() const;

  private:
    /** One endpoint's view of one flapping link. */
    struct Chain
    {
        std::uint16_t self;
        std::uint16_t peer;
        std::size_t island;
        LinkSchedule sched;
        EventQueue* events;
        std::uint64_t raised = 0;
    };

    void fire(std::size_t idx);

    /**
     * Whether, in @p c's island view, some third mesh link out of
     * c.self is still up — an SM-style detour exists.
     */
    bool hasRedundantPath(const Chain& c) const;

    net::Fabric& fabric_;
    Topology& topology_;
    /** Deque: fire() captures indices, addresses must stay stable. */
    std::deque<Chain> chains_;
    bool started_ = false;
};

/** Knobs of a CombinedStormStage (see the class). */
struct CombinedStormConfig
{
    std::uint64_t seed = 1;
    /** Cadence of the per-node pressure ticker. */
    Time tickInterval = Time::us(50);
    /** Ticker lifetime (bounded so queues drain). */
    Time duration = Time::ms(50);
    /** Mapped pages invalidated per down-window tick. */
    std::size_t pagesPerBurst = 4;
    /** CQ capacity clamp during down windows (0 leaves it unbounded). */
    std::size_t squeezeCapacity = 0;
};

/** Aggregate observability of a combined storm. */
struct CombinedStormStats
{
    std::uint64_t ticks = 0;
    std::uint64_t downTicks = 0;  ///< ticks inside a down window
    std::uint64_t pagesInvalidated = 0;
    std::uint64_t capacityClamps = 0;  ///< unclamped -> clamped edges
};

/**
 * One invalidation burst: draw @p pages pages of [first, last] from
 * @p rng and invalidate each one that is not NotPresent. Pages
 * mid-transition (Faulting, or inside a window) are hit too, driving the
 * doomed-fault and window-extension edges.
 *
 * @return the number of pages invalidated.
 */
std::size_t invalidateBurst(odp::OdpDriver& driver,
                            odp::TranslationTable& table,
                            std::uint64_t first, std::uint64_t last,
                            std::size_t pages, Rng& rng);

/**
 * Faults-during-faults: per registered node, a ticker on the node's
 * island queue consults private LinkSchedule replicas of the node's
 * flapping links and, whenever any is inside a down window, invalidates
 * random mapped ODP pages of the registered range and clamps the node's
 * CQ capacity (restoring it when every link is back up). Replicas —
 * not the fabric's live link state — decide "down", so each tick is a
 * pure function of (seed, time) and job-count invariant. Non-owning
 * throughout; register targets before start().
 */
class CombinedStormStage
{
  public:
    CombinedStormStage(net::Fabric& fabric, Topology& topology,
                       const CombinedStormConfig& config);

    /**
     * Register @p lid's resources. @p addr / @p len bound the ODP range
     * the storm may invalidate; @p cq is the node's completion queue.
     */
    void addTarget(std::uint16_t lid, odp::OdpDriver& driver,
                   odp::TranslationTable& table, std::uint64_t addr,
                   std::uint64_t len, verbs::CompletionQueue& cq);

    /** Schedule every target's ticker on its node's island queue. */
    void start();

    /** Summed per-target stats (read after the run). */
    CombinedStormStats stats() const;

  private:
    struct Target
    {
        std::uint16_t lid;
        odp::OdpDriver* driver;
        odp::TranslationTable* table;
        std::uint64_t firstPage;
        std::uint64_t lastPage;
        verbs::CompletionQueue* cq;
        EventQueue* events = nullptr;
        Rng rng;
        /** Private replicas of the node's flapping links. */
        std::vector<LinkSchedule> links;
        std::size_t normalCapacity = 0;
        bool squeezed = false;
        Time endAt;
        CombinedStormStats stats;
    };

    void tick(std::size_t idx);

    net::Fabric& fabric_;
    Topology& topology_;
    CombinedStormConfig config_;
    /** Deque: tick() captures indices, addresses must stay stable. */
    std::deque<Target> targets_;
    bool started_ = false;
};

} // namespace chaos
} // namespace ibsim

#endif // IBSIM_CHAOS_PORT_EVENTS_HH
