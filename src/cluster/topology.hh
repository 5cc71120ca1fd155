/**
 * @file
 * Multi-node chaos topology: per-link seed-deterministic flap schedules.
 *
 * The single LinkFlapStage models one flapping cable with a fixed duty
 * cycle; real multi-node incidents look different — each link of a mesh
 * fails on its own schedule, and the interesting transport states appear
 * where flows that share endpoints see *different* connectivity (the
 * paper's timeout machinery then runs on some QPs of a node while others
 * make progress). chaos::Topology models an N-node full mesh in which
 * every unordered link {a, b} owns a flap plan (mean up/down durations)
 * and a private RNG derived from one seed via exp::SeedStream, producing
 * a jittered up/down window sequence that is a pure function of (seed,
 * link, virtual time) — independent of packet arrival order, so any
 * failing schedule replays bit-identically.
 *
 * TopologyStage adapts the schedule into the chaos::FaultInjector
 * pipeline: packets crossing a link during one of its down windows are
 * dropped (counted in InjectorStats::flapDropped). The
 * invariant oracle attaches with InvariantMonitor::watchAll(cluster) and
 * must stay clean while the mesh flaps.
 */

#ifndef IBSIM_CLUSTER_TOPOLOGY_HH
#define IBSIM_CLUSTER_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "chaos/fault_injector.hh"
#include "simcore/rng.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace chaos {

/**
 * Flap plan of one link: alternating up/down windows whose durations are
 * jittered uniformly in [0.5, 1.5] x the mean. meanDown == 0 disables
 * flapping (the link is always up).
 */
struct FlapPlan
{
    Time meanUp;
    Time meanDown;

    bool enabled() const { return meanDown > Time(); }
};

/**
 * The window schedule of one link, extracted as a first-class cursor so
 * the same (plan, seed) pair can drive both the lazy per-query flap
 * check (Topology::linkUp, the legacy silent-drop TopologyStage) and the
 * eager port-*event* chains of chaos::PortEventDriver. The draw sequence
 * is exactly the historical Link one — first query draws the first
 * toggle from meanUp, then each toggle flips the state *before* drawing
 * the next window — so replicas built from Topology::makeSchedule()
 * reproduce the legacy windows bit-identically (the mesh-soak golden
 * depends on this).
 */
class LinkSchedule
{
  public:
    LinkSchedule(FlapPlan plan, std::uint64_t seed)
        : plan_(plan), rng_(seed)
    {}

    bool enabled() const { return plan_.enabled(); }
    const FlapPlan& plan() const { return plan_; }

    /** Swap the plan (legal before the schedule starts drawing). */
    void setPlan(const FlapPlan& plan) { plan_ = plan; }

    bool up() const { return up_; }
    bool started() const { return started_; }
    Time nextToggle() const { return nextToggle_; }

    /** Down windows entered so far. */
    std::uint64_t downTransitions() const { return downs_; }

    /** Draw the first toggle time (idempotent); returns it. */
    Time
    start()
    {
        if (!started_) {
            started_ = true;
            nextToggle_ = rng_.jitter(plan_.meanUp, 0.5);
        }
        return nextToggle_;
    }

    /** Flip at the current toggle boundary; returns the next one. */
    Time
    toggle()
    {
        up_ = !up_;
        if (!up_)
            ++downs_;
        nextToggle_ +=
            rng_.jitter(up_ ? plan_.meanUp : plan_.meanDown, 0.5);
        return nextToggle_;
    }

    /**
     * Advance to @p now and report the state (the lazy query form;
     * queries must be time-monotonic).
     */
    bool
    upAt(Time now)
    {
        if (!enabled())
            return true;
        start();
        while (now >= nextToggle_)
            toggle();
        return up_;
    }

  private:
    FlapPlan plan_;
    Rng rng_;
    bool up_ = true;
    bool started_ = false;
    std::uint64_t downs_ = 0;
    Time nextToggle_;
};

/**
 * An N-node full mesh of independently flapping links (LIDs 1..N, the
 * Cluster numbering). Links start up and carry no plan until one is set.
 */
class Topology
{
  public:
    /**
     * @param node_count nodes in the mesh (LIDs 1..node_count)
     * @param seed base of every link's private schedule RNG
     */
    Topology(std::size_t node_count, std::uint64_t seed);

    std::size_t nodeCount() const { return nodes_; }

    /** Set the flap plan of every link at once. */
    void setDefaultPlan(const FlapPlan& plan);

    /** Set the flap plan of the link {lid_a, lid_b} (order-insensitive). */
    void setLinkPlan(std::uint16_t lid_a, std::uint16_t lid_b,
                     const FlapPlan& plan);

    /**
     * Whether the link carrying src -> dst traffic is up at @p now,
     * advancing its window schedule as virtual time passes. Queries must
     * be time-monotonic (they come from the event loop, so they are).
     * Links outside the mesh — either LID not in [1, nodeCount] — and
     * self-loops are always up.
     */
    bool linkUp(std::uint16_t src, std::uint16_t dst, Time now);

    /** Completed down windows across every link. */
    std::uint64_t totalFlaps() const;

    /** Whether {lid_a, lid_b} is a mesh link with an enabled plan. */
    bool linkEnabled(std::uint16_t lid_a, std::uint16_t lid_b) const;

    /**
     * Fork a fresh schedule replica of {lid_a, lid_b} — same plan, same
     * private seed, cursor at time zero. Replicas advance independently
     * of the topology's own lazy cursor, so port-event drivers (and
     * their per-island copies under the sharded kernel) see the exact
     * window sequence TopologyStage would, without sharing state.
     */
    LinkSchedule makeSchedule(std::uint16_t lid_a,
                              std::uint16_t lid_b) const;

    /** Whether {lid_a, lid_b} are distinct LIDs inside the mesh. */
    bool inMesh(std::uint16_t lid_a, std::uint16_t lid_b) const;

  private:
    /** Index of the unordered link {a, b} in the triangular table. */
    std::size_t linkIndex(std::uint16_t lid_a, std::uint16_t lid_b) const;

    std::size_t nodes_;
    std::uint64_t seed_;
    std::vector<LinkSchedule> links_;
};

/**
 * FaultInjector stage dropping packets whose link is in a down window of
 * @p topology's schedule. Non-owning: the topology must outlive the
 * injector it is attached to. Drawing nothing from the pipeline RNG, it
 * leaves every other stage's schedule untouched.
 */
class TopologyStage : public FaultStage
{
  public:
    explicit TopologyStage(Topology& topology) : topology_(topology) {}

    const char* name() const override { return "topology"; }
    void apply(std::vector<net::FaultHook::Delivery>& deliveries, Time now,
               Rng& rng, InjectorStats& stats) override;

  private:
    Topology& topology_;
};

} // namespace chaos
} // namespace ibsim

#endif // IBSIM_CLUSTER_TOPOLOGY_HH
