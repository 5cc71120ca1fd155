#include "chaos/chaos_engine.hh"

#include <memory>
#include <stdexcept>

#include "chaos/port_events.hh"
#include "cluster/topology.hh"
#include "exp/seed_stream.hh"
#include "mem/address_space.hh"

namespace ibsim {
namespace chaos {

ChaosEngine::ChaosEngine(EventQueue& events, const ChaosConfig& config)
    : events_(events), config_(config),
      rng_(exp::SeedStream("chaos.engine", config.seed).base()),
      injector_(config.seed)
{
    buildStages(injector_, config_);
}

ChaosEngine::~ChaosEngine() = default;

void
ChaosEngine::buildStages(FaultInjector& injector, const ChaosConfig& config)
{
    // Canonical stage order: timing faults first (they keep the packet),
    // then duplication and corruption, then the drop classes, then
    // injection of new traffic. A fixed order keeps equal configs
    // producing equal schedules.
    if (config.delayRate > 0.0) {
        injector.addStage(std::make_unique<DelayStage>(
            config.filter, config.delayRate, config.delayMin,
            config.delayMax));
    }
    if (config.reorderRate > 0.0) {
        injector.addStage(std::make_unique<ReorderStage>(
            config.filter, config.reorderRate, config.reorderMaxHold));
    }
    if (config.dupRate > 0.0) {
        injector.addStage(std::make_unique<DuplicateStage>(
            config.filter, config.dupRate, config.dupMaxDelay));
    }
    if (config.corruptRate > 0.0) {
        injector.addStage(std::make_unique<CorruptStage>(
            config.filter, config.corruptRate, config.corruptEvadeCrc));
    }
    if (config.flapDown > Time()) {
        injector.addStage(std::make_unique<LinkFlapStage>(
            config.filter, config.flapPeriod, config.flapDown));
    }
    if (config.dropRate > 0.0) {
        injector.addStage(std::make_unique<DropStage>(config.filter,
                                                      config.dropRate));
    }
    if (config.forgedNakRate > 0.0) {
        PacketFilter requests = config.filter;
        requests.requestsOnly = true;
        injector.addStage(std::make_unique<ForgedNakStage>(
            requests, config.forgedNakRate, net::Opcode::Nak,
            Time::ms(1.28), config.forgedNakMaxRewind));
    }
}

void
ChaosEngine::attachTopology(Topology& topology)
{
    topology_ = &topology;
    injector_.addStage(std::make_unique<TopologyStage>(topology));
}

void
ChaosEngine::attachPortEvents(Topology& topology)
{
    eventTopology_ = &topology;
}

void
ChaosEngine::install(net::Fabric& fabric)
{
    laneInjectors_.clear();
    topoReplicas_.clear();
    if (fabric.islandCount() == 1) {
        fabric.setIslandFaultHook(0, &injector_);
    } else {
        // One pipeline fork per lane: the same stage list, a disjoint
        // RNG stream each. Topology replicas replay the identical flap
        // windows (schedules are pure functions of (seed, link, time));
        // they exist because linkUp() advances per-link cursors, which
        // must not be shared across workers.
        const exp::SeedStream fork("chaos.engine.island", config_.seed);
        for (std::size_t i = 0; i < fabric.islandCount(); ++i) {
            auto injector =
                std::make_unique<FaultInjector>(fork.trialSeed(0, i));
            buildStages(*injector, config_);
            if (topology_ != nullptr) {
                topoReplicas_.push_back(
                    std::make_unique<Topology>(*topology_));
                injector->addStage(
                    std::make_unique<TopologyStage>(*topoReplicas_.back()));
            }
            fabric.setIslandFaultHook(i, injector.get());
            laneInjectors_.push_back(std::move(injector));
        }
    }

    // Port-event mode: the driver runs one schedule replica per endpoint
    // chain on that endpoint's island queue — the same trick as the
    // TopologyStage replicas above, applied to events.
    if (eventTopology_ != nullptr && portEvents_ == nullptr) {
        portEvents_ =
            std::make_unique<PortEventDriver>(fabric, *eventTopology_);
        portEvents_->start();
    }
}

EngineStats
ChaosEngine::stats() const
{
    EngineStats total = stats_;
    auto add = [&total](const InjectorStats& s) {
        total.wire.packetsSeen += s.packetsSeen;
        total.wire.delayed += s.delayed;
        total.wire.reordered += s.reordered;
        total.wire.duplicated += s.duplicated;
        total.wire.corrupted += s.corrupted;
        total.wire.dropped += s.dropped;
        total.wire.flapDropped += s.flapDropped;
        total.wire.naksForged += s.naksForged;
    };
    if (laneInjectors_.empty())
        add(injector_.stats());
    for (const auto& injector : laneInjectors_)
        add(injector->stats());
    return total;
}

std::uint64_t
ChaosEngine::flaps() const
{
    if (topoReplicas_.empty())
        return topology_ != nullptr ? topology_->totalFlaps() : 0;
    std::uint64_t total = 0;
    for (const auto& topo : topoReplicas_)
        total += topo->totalFlaps();
    return total;
}

void
ChaosEngine::addOdpLatencySpikes(odp::OdpDriver& driver, double rate,
                                 double factor)
{
    driver.setLatencyChaos([this, rate, factor] {
        if (rng_.chance(rate)) {
            ++stats_.odpSpikes;
            return factor;
        }
        return 1.0;
    });
}

void
ChaosEngine::startInvalidationStorm(odp::OdpDriver& driver,
                                    odp::TranslationTable& table,
                                    std::uint64_t addr, std::uint64_t len,
                                    Time interval,
                                    std::size_t pages_per_burst,
                                    std::size_t bursts)
{
    if (&driver.events() != &events_) {
        throw std::logic_error(
            "ChaosEngine: invalidation storm target runs on another "
            "island's queue");
    }
    if (len == 0 || pages_per_burst == 0 || bursts == 0 || !table.odp())
        return;
    storms_.push_back({&driver, &table, mem::pageOf(addr),
                       mem::pageOf(addr + len - 1), interval,
                       pages_per_burst, bursts});
    Storm* storm = &storms_.back();
    driver.events().scheduleAfter(interval,
                                  [this, storm] { stormTick(storm); });
}

void
ChaosEngine::stormTick(Storm* storm)
{
    stats_.pagesInvalidated +=
        invalidateBurst(*storm->driver, *storm->table, storm->firstPage,
                        storm->lastPage, storm->pagesPerBurst, rng_);
    ++stats_.stormBursts;
    if (--storm->burstsLeft > 0) {
        storm->driver->events().scheduleAfter(
            storm->interval, [this, storm] { stormTick(storm); });
    }
}

void
ChaosEngine::applyCqPressure(verbs::CompletionQueue& cq,
                             std::size_t capacity)
{
    cq.setCapacity(capacity);
}

} // namespace chaos
} // namespace ibsim
