#include "chaos/port_events.hh"

#include "exp/seed_stream.hh"
#include "mem/address_space.hh"

namespace ibsim {
namespace chaos {

std::size_t
invalidateBurst(odp::OdpDriver& driver, odp::TranslationTable& table,
                std::uint64_t first, std::uint64_t last, std::size_t pages,
                Rng& rng)
{
    std::size_t invalidated = 0;
    for (std::size_t i = 0; i < pages; ++i) {
        const auto page = static_cast<std::uint64_t>(
            rng.uniformInt(static_cast<std::int64_t>(first),
                           static_cast<std::int64_t>(last)));
        if (table.state(page) != odp::PageState::NotPresent) {
            driver.invalidate(table, page * mem::pageSize);
            ++invalidated;
        }
    }
    return invalidated;
}

PortEventDriver::PortEventDriver(net::Fabric& fabric, Topology& topology)
    : fabric_(fabric), topology_(topology)
{}

void
PortEventDriver::start()
{
    if (started_)
        return;
    started_ = true;

    const std::size_t nodes = topology_.nodeCount();
    for (std::uint16_t a = 1; a <= nodes; ++a) {
        for (std::uint16_t b = a + 1; b <= nodes; ++b) {
            if (!topology_.linkEnabled(a, b))
                continue;
            for (const std::uint16_t self : {a, b}) {
                const std::uint16_t peer = self == a ? b : a;
                const std::size_t island = fabric_.islandOf(self);
                chains_.push_back(Chain{self, peer, island,
                                        topology_.makeSchedule(a, b),
                                        &fabric_.islandEvents(island), 0});
            }
        }
    }

    for (std::size_t idx = 0; idx < chains_.size(); ++idx) {
        Chain& chain = chains_[idx];
        const Time first = chain.sched.start();
        chain.events->schedule(first, [this, idx] { fire(idx); });
    }
}

void
PortEventDriver::fire(std::size_t idx)
{
    Chain& c = chains_[idx];
    const Time next = c.sched.toggle();
    const bool up = c.sched.up();

    // Toggle this island's replica first so redundancy is judged against
    // the post-transition view (the just-cut link never counts as a
    // detour; third links are unaffected either way).
    fabric_.setLaneLinkState(c.island, c.self, c.peer, up);

    net::PortEvent ev;
    ev.type = up ? net::PortEvent::Type::PathUp
                 : net::PortEvent::Type::PathDown;
    ev.lid = c.self;
    ev.peerLid = c.peer;
    ev.redundantPath = hasRedundantPath(c);
    ++c.raised;
    fabric_.raisePortEvent(c.self, ev);

    c.events->schedule(next, [this, idx] { fire(idx); });
}

bool
PortEventDriver::hasRedundantPath(const Chain& c) const
{
    const std::size_t nodes = topology_.nodeCount();
    for (std::uint16_t x = 1; x <= nodes; ++x) {
        if (x == c.self || x == c.peer)
            continue;
        // Links without a plan never enter the down set: always up.
        if (!fabric_.laneLinkDown(c.island, c.self, x))
            return true;
    }
    return false;
}

std::uint64_t
PortEventDriver::linkFlaps() const
{
    std::uint64_t total = 0;
    for (const Chain& c : chains_) {
        if (c.self < c.peer)  // one chain per link counts
            total += c.sched.downTransitions();
    }
    return total;
}

std::uint64_t
PortEventDriver::eventsRaised() const
{
    std::uint64_t total = 0;
    for (const Chain& c : chains_)
        total += c.raised;
    return total;
}

CombinedStormStage::CombinedStormStage(net::Fabric& fabric,
                                       Topology& topology,
                                       const CombinedStormConfig& config)
    : fabric_(fabric), topology_(topology), config_(config)
{}

void
CombinedStormStage::addTarget(std::uint16_t lid, odp::OdpDriver& driver,
                              odp::TranslationTable& table,
                              std::uint64_t addr, std::uint64_t len,
                              verbs::CompletionQueue& cq)
{
    if (len == 0 || !table.odp())
        return;
    Target t;
    t.lid = lid;
    t.driver = &driver;
    t.table = &table;
    t.firstPage = mem::pageOf(addr);
    t.lastPage = mem::pageOf(addr + len - 1);
    t.cq = &cq;
    t.rng.reseed(
        exp::SeedStream("chaos.storm", config_.seed).trialSeed(lid, 0));
    targets_.push_back(std::move(t));
}

void
CombinedStormStage::start()
{
    if (started_)
        return;
    started_ = true;

    const std::size_t nodes = topology_.nodeCount();
    for (std::size_t idx = 0; idx < targets_.size(); ++idx) {
        Target& t = targets_[idx];
        for (std::uint16_t x = 1; x <= nodes; ++x) {
            if (x != t.lid && topology_.linkEnabled(t.lid, x))
                t.links.push_back(topology_.makeSchedule(t.lid, x));
        }
        t.events = &fabric_.islandEvents(fabric_.islandOf(t.lid));
        t.endAt = t.events->now() + config_.duration;
        t.events->scheduleAfter(config_.tickInterval,
                                [this, idx] { tick(idx); });
    }
}

void
CombinedStormStage::tick(std::size_t idx)
{
    Target& t = targets_[idx];
    const Time now = t.events->now();
    ++t.stats.ticks;

    // Advance every replica unconditionally: each cursor's draws are a
    // pure function of (its seed, now), keeping ticks job-count
    // invariant no matter which link trips the down condition.
    bool down = false;
    for (LinkSchedule& link : t.links) {
        if (!link.upAt(now))
            down = true;
    }

    if (down) {
        ++t.stats.downTicks;
        if (config_.squeezeCapacity > 0 && !t.squeezed) {
            t.cq->setCapacity(config_.squeezeCapacity);
            t.squeezed = true;
            ++t.stats.capacityClamps;
        }
        t.stats.pagesInvalidated +=
            invalidateBurst(*t.driver, *t.table, t.firstPage, t.lastPage,
                            config_.pagesPerBurst, t.rng);
    } else if (t.squeezed) {
        t.cq->setCapacity(t.normalCapacity);
        t.squeezed = false;
    }

    if (now + config_.tickInterval <= t.endAt) {
        t.events->scheduleAfter(config_.tickInterval,
                                [this, idx] { tick(idx); });
    } else if (t.squeezed) {
        // Storm over: leave the CQ the way we found it.
        t.cq->setCapacity(t.normalCapacity);
        t.squeezed = false;
    }
}

CombinedStormStats
CombinedStormStage::stats() const
{
    CombinedStormStats total;
    for (const Target& t : targets_) {
        total.ticks += t.stats.ticks;
        total.downTicks += t.stats.downTicks;
        total.pagesInvalidated += t.stats.pagesInvalidated;
        total.capacityClamps += t.stats.capacityClamps;
    }
    return total;
}

} // namespace chaos
} // namespace ibsim
