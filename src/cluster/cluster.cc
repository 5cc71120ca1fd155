#include "cluster/cluster.hh"

#include <algorithm>
#include <cstdio>

#include "exp/seed_stream.hh"

namespace ibsim {

namespace {

/** @p kernel after adding island 0 (a fabric needs one lane). */
ShardedKernel&
withFirstIsland(ShardedKernel& kernel)
{
    kernel.addIsland();
    return kernel;
}

} // namespace

Cluster::Cluster(rnic::DeviceProfile profile, std::size_t node_count,
                 std::uint64_t seed, net::LinkConfig link,
                 ClusterOptions options)
    : rng_(seed), defaultProfile_(std::move(profile)), seed_(seed),
      sharded_(options.sharded),
      // The lookahead is the minimum virtual time any cross-island
      // influence needs: a packet leaving island A is delivered on
      // island B no earlier than egress + latency + per-packet overhead;
      // serialization and chaos delays only push that later.
      kernel_(link.latency + link.perPacketOverhead, options.jobs),
      fabric_(withFirstIsland(kernel_), link)
{
    for (std::size_t i = 0; i < node_count; ++i)
        addNode();
}

EventQueue&
Cluster::events()
{
    return kernel_.island(0);
}

Node&
Cluster::addNode()
{
    return addNode(defaultProfile_);
}

Node&
Cluster::addNode(const rnic::DeviceProfile& profile)
{
    // Island mode: one island per node (node 0 takes island 0), each
    // with a SeedStream-forked RNG, so the execution is independent of
    // how islands map onto workers. Single-queue mode: every node on
    // island 0, sharing rng_.
    std::size_t island = 0;
    Rng* rng = &rng_;
    if (sharded_) {
        if (!nodes_.empty())
            island = fabric_.addIslandLane();
        fabric_.assignLid(nextLid_, island);
        const exp::SeedStream fork("cluster.island", seed_);
        islandRngs_.emplace_back(fork.trialSeed(1, island));
        rng = &islandRngs_.back();
    }
    nodes_.push_back(std::make_unique<Node>(kernel_.island(island), *rng,
                                            fabric_, nextLid_++, profile));
    return *nodes_.back();
}

std::vector<Node*>
Cluster::addNodePlanes(const rnic::DeviceProfile& profile, unsigned planes)
{
    std::vector<Node*> out;
    // All planes share one logical island (the first plane's island) so
    // stats attribute their work to the machine they model.
    std::size_t logical = 0;
    for (unsigned p = 0; p < std::max(1u, planes); ++p) {
        Node& node = addNode(profile);
        const std::size_t island = fabric_.islandOf(node.lid());
        if (out.empty())
            logical = island;
        kernel_.setLogicalIsland(island, logical);
        out.push_back(&node);
    }
    return out;
}

std::string
Cluster::report()
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "cluster @ %s: %zu nodes, %llu events executed\n",
                  now().str().c_str(), nodes_.size(),
                  static_cast<unsigned long long>(eventsExecuted()));
    out += line;
    std::snprintf(line, sizeof(line),
                  "fabric: sent=%llu delivered=%llu dropped=%llu\n",
                  static_cast<unsigned long long>(fabric_.totalSent()),
                  static_cast<unsigned long long>(
                      fabric_.totalDelivered()),
                  static_cast<unsigned long long>(
                      fabric_.totalDropped()));
    out += line;

    for (auto& node : nodes_) {
        const auto& d = node->driver().stats();
        const auto& b = node->board().stats();
        rnic::QpStats agg;
        std::size_t qps = 0;
        for (auto* qp : node->rnic().allQps()) {
            ++qps;
            agg.requestsSent += qp->stats.requestsSent;
            agg.retransmissions += qp->stats.retransmissions;
            agg.timeouts += qp->stats.timeouts;
            agg.rnrNaksReceived += qp->stats.rnrNaksReceived;
            agg.seqNaksReceived += qp->stats.seqNaksReceived;
            agg.dammedDrops += qp->stats.dammedDrops;
            agg.completions += qp->stats.completions;
        }
        std::snprintf(
            line, sizeof(line),
            "node lid=%u: qps=%zu reqs=%llu rexmits=%llu timeouts=%llu "
            "rnr=%llu seq_naks=%llu dammed=%llu completions=%llu\n",
            node->lid(), qps,
            static_cast<unsigned long long>(agg.requestsSent),
            static_cast<unsigned long long>(agg.retransmissions),
            static_cast<unsigned long long>(agg.timeouts),
            static_cast<unsigned long long>(agg.rnrNaksReceived),
            static_cast<unsigned long long>(agg.seqNaksReceived),
            static_cast<unsigned long long>(agg.dammedDrops),
            static_cast<unsigned long long>(agg.completions));
        out += line;
        std::snprintf(
            line, sizeof(line),
            "  odp: faults=%llu coalesced=%llu resolved=%llu "
            "invalidations=%llu prefetched=%llu | board: waiters=%llu "
            "prompt=%llu failures=%llu slow=%llu\n",
            static_cast<unsigned long long>(d.faultsRaised),
            static_cast<unsigned long long>(d.faultsCoalesced),
            static_cast<unsigned long long>(d.faultsResolved),
            static_cast<unsigned long long>(d.invalidations),
            static_cast<unsigned long long>(d.prefetchedPages),
            static_cast<unsigned long long>(b.waitersRegistered),
            static_cast<unsigned long long>(b.promptUpdates),
            static_cast<unsigned long long>(b.updateFailures),
            static_cast<unsigned long long>(b.slowRefreshes));
        out += line;
    }

    // Port-event chaos ran: append the link-failure/recovery summary.
    const PortEventSummary pe = portEventSummary();
    if (pe.portDownEvents + pe.portUpEvents + pe.gateDrops > 0) {
        std::snprintf(
            line, sizeof(line),
            "port events: down=%llu up=%llu reroutes=%llu "
            "qp_errors=%llu qp_recovered=%llu stale_drops=%llu "
            "cm_rearms=%llu gate_drops=%llu\n",
            static_cast<unsigned long long>(pe.portDownEvents),
            static_cast<unsigned long long>(pe.portUpEvents),
            static_cast<unsigned long long>(pe.reroutes),
            static_cast<unsigned long long>(pe.qpsEnteredError),
            static_cast<unsigned long long>(pe.qpsRecovered),
            static_cast<unsigned long long>(pe.staleEpochDrops),
            static_cast<unsigned long long>(pe.cmRearmsSent),
            static_cast<unsigned long long>(pe.gateDrops));
        out += line;
    }
    return out;
}

Cluster::PortEventSummary
Cluster::portEventSummary()
{
    PortEventSummary s;
    for (const auto& node : nodes_) {
        const rnic::RnicStats& r = node->rnic().stats();
        s.portDownEvents += r.portDownEvents;
        s.portUpEvents += r.portUpEvents;
        s.reroutes += r.reroutes;
        s.qpsEnteredError += r.qpsEnteredError;
        s.qpsRecovered += r.qpsRecovered;
        s.staleEpochDrops += r.staleEpochDrops;
        s.cmRearmsSent += r.cmRearmsSent;
    }
    s.gateDrops = fabric_.totalPortEventDrops();
    return s;
}

std::uint64_t
Cluster::totalCompletions() const
{
    std::uint64_t total = 0;
    for (const auto& node : nodes_)
        total += node->totalCompletions();
    return total;
}

std::pair<verbs::QueuePair, verbs::QueuePair>
Cluster::connectRc(Node& a, verbs::CompletionQueue& cq_a, Node& b,
                   verbs::CompletionQueue& cq_b, verbs::QpConfig config)
{
    verbs::QueuePair qa = a.createQp(cq_a, config);
    verbs::QueuePair qb = b.createQp(cq_b, config);
    qa.connect(b.lid(), qb.qpn());
    qb.connect(a.lid(), qa.qpn());
    return {qa, qb};
}

} // namespace ibsim
