/**
 * @file
 * The chaos engine: one object owning a full fault campaign.
 *
 * The FaultInjector covers the wire; real deployments also fail on the
 * RNIC/ODP side — page-fault servicing stalls (the paper's Sec. III-A
 * latencies ballooning under load), translation invalidation storms
 * (Sec. VII's flood experiments are one long storm), and CQ overflow
 * pressure. ChaosEngine bundles both halves behind one seed: construct it
 * from a ChaosConfig, install() it on the fabric, and point the ODP/CQ
 * helpers at the resources under test. Every decision draws from RNGs
 * derived from the one seed via exp::SeedStream, disjoint from the
 * cluster's own streams, so a failing campaign replays bit-identically
 * without perturbing the workload's randomness.
 */

#ifndef IBSIM_CHAOS_CHAOS_ENGINE_HH
#define IBSIM_CHAOS_CHAOS_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "chaos/fault_injector.hh"
#include "net/fabric.hh"
#include "odp/odp_driver.hh"
#include "odp/translation_table.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "verbs/completion_queue.hh"

namespace ibsim {
namespace chaos {

class Topology;
class PortEventDriver;

/**
 * Declarative fault campaign. Rates are per-packet probabilities; a
 * fault class is off at rate 0 (flap is off while flapDown is 0). The
 * CLI's --chaos-* flags and the chaos_probe bench both map onto this.
 */
struct ChaosConfig
{
    std::uint64_t seed = 1;

    double dropRate = 0.0;
    double dupRate = 0.0;
    double reorderRate = 0.0;
    Time reorderMaxHold = Time::us(200);
    double corruptRate = 0.0;
    double corruptEvadeCrc = 0.0;
    double delayRate = 0.0;
    Time delayMin = Time::us(1);
    Time delayMax = Time::us(100);
    double forgedNakRate = 0.0;

    /**
     * When > 0, forged NAK PSNs land up to this many slots below the
     * triggering request — inside a possibly coalesced-ACKed range (the
     * ForgedNakStage ACK-coalescing edge case). 0 keeps the classic
     * NAK-at-request-PSN behaviour.
     */
    std::uint32_t forgedNakMaxRewind = 0;

    Time flapPeriod = Time::ms(10);
    Time flapDown;  ///< 0 disables the flap stage
};

/** Counters for the RNIC/ODP-side faults and the wire pipelines. */
struct EngineStats
{
    std::uint64_t odpSpikes = 0;
    std::uint64_t stormBursts = 0;
    std::uint64_t pagesInvalidated = 0;
    /** InjectorStats of injector(), or summed over the per-lane forks. */
    InjectorStats wire;
};

/**
 * Owns a FaultInjector built from a ChaosConfig plus the ODP/CQ fault
 * sources. Keep it alive for the duration of the run (the fabric and
 * driver hold non-owning references into it).
 */
class ChaosEngine
{
  public:
    ChaosEngine(EventQueue& events, const ChaosConfig& config);
    ~ChaosEngine();

    ChaosEngine(const ChaosEngine&) = delete;
    ChaosEngine& operator=(const ChaosEngine&) = delete;

    /**
     * Install the wire pipeline on @p fabric (and, after
     * attachPortEvents(), start the port-event driver). A one-lane
     * fabric gets injector() itself. A fabric with several lanes gets
     * one FaultInjector per lane — the same stage pipeline, but each
     * fork draws from its own SeedStream-derived RNG (disjoint per
     * island, so the campaign is deterministic at any worker count) and,
     * when attachTopology() was called first, consults its own replica
     * of the topology's flap schedule (link schedules are pure functions
     * of (seed, link, time), so every replica replays the same windows;
     * replicas exist because schedule cursors mutate on query). Call
     * after attachTopology() and after every node exists.
     */
    void install(net::Fabric& fabric);

    /** Remove the wire pipeline from @p fabric. */
    void uninstall(net::Fabric& fabric) { fabric.setFaultHook(nullptr); }

    /** The one-lane pipeline. */
    FaultInjector& injector() { return injector_; }

    const ChaosConfig& config() const { return config_; }

    /**
     * Append a TopologyStage consulting @p topology's per-link flap
     * schedules (cluster/topology.hh) to the wire pipeline — the
     * multi-node counterpart of the single LinkFlapStage. @p topology
     * must outlive the engine; stages run in attach order after the
     * config-built ones.
     */
    void attachTopology(Topology& topology);

    /**
     * Port-event mode — the opt-in successor of attachTopology(). No
     * TopologyStage is added; instead install() starts a
     * PortEventDriver (chaos/port_events.hh) that converts @p topology's
     * flap schedules into fabric link-state toggles (packets drop at the
     * sending port) plus async port events toward the RNICs, which is
     * what the QP error/recovery machinery keys off. The driver runs one
     * schedule replica per endpoint on that endpoint's island, exactly
     * like the TopologyStage replicas, so the event sequence is
     * bit-identical at any jobs count. Mutually
     * exclusive with attachTopology(); the legacy silent-drop mode stays
     * the default.
     */
    void attachPortEvents(Topology& topology);

    /** The port-event driver (null until install()). */
    PortEventDriver* portEvents() { return portEvents_.get(); }

    /**
     * Page-fault latency spikes: with probability @p rate a fault's
     * resolution latency is multiplied by @p factor (a periodically
     * overloaded ODP servicing thread). Installs the driver's latency
     * chaos probe; one probe per driver.
     */
    void addOdpLatencySpikes(odp::OdpDriver& driver, double rate,
                             double factor);

    /**
     * Translation invalidation storm: every @p interval, invalidate up to
     * @p pages_per_burst randomly chosen mapped pages of
     * [@p addr, @p addr + @p len) in @p table, for @p bursts bursts
     * (bounded so the event queue can drain). The bursts run on
     * @p driver's queue, which must be the engine's own: the engine's
     * RNG and stats would otherwise race with other islands at jobs > 1
     * (throws std::logic_error).
     */
    void startInvalidationStorm(odp::OdpDriver& driver,
                                odp::TranslationTable& table,
                                std::uint64_t addr, std::uint64_t len,
                                Time interval,
                                std::size_t pages_per_burst,
                                std::size_t bursts);

    /**
     * CQ overflow pressure: cap @p cq at @p capacity pending entries.
     * Completions pushed beyond the cap are lost (counted by the CQ) —
     * the invariant monitor's completion accounting then shows exactly
     * what the application missed.
     */
    void applyCqPressure(verbs::CompletionQueue& cq, std::size_t capacity);

    /** ODP-side counters plus the wire totals over every lane. */
    EngineStats stats() const;

    /** Completed down-windows of the attached topology, summed over the
     * per-lane replicas when several lanes are installed. */
    std::uint64_t flaps() const;

  private:
    struct Storm
    {
        odp::OdpDriver* driver;
        odp::TranslationTable* table;
        std::uint64_t firstPage;
        std::uint64_t lastPage;
        Time interval;
        std::size_t pagesPerBurst;
        std::size_t burstsLeft;
    };

    void stormTick(Storm* storm);

    /** Append the ChaosConfig-declared stages to @p injector. */
    static void buildStages(FaultInjector& injector,
                            const ChaosConfig& config);

    EventQueue& events_;
    ChaosConfig config_;
    Rng rng_;  ///< engine-side decisions (spikes, storms)
    FaultInjector injector_;
    std::deque<Storm> storms_;  ///< deque: stable addresses for callbacks
    EngineStats stats_;  ///< ODP side (wire totals are summed on read)

    /** @{ Per-lane pipeline forks and topology replicas, empty with one
     * lane (unique_ptrs: Topology is incomplete here, and addresses must
     * stay stable — TopologyStage holds a reference). */
    Topology* topology_ = nullptr;
    std::vector<std::unique_ptr<Topology>> topoReplicas_;
    std::vector<std::unique_ptr<FaultInjector>> laneInjectors_;
    /** @} */

    /** Port-event mode (attachPortEvents()). */
    Topology* eventTopology_ = nullptr;
    std::unique_ptr<PortEventDriver> portEvents_;
};

} // namespace chaos
} // namespace ibsim

#endif // IBSIM_CHAOS_CHAOS_ENGINE_HH
