/**
 * @file
 * The four perfbench workloads. Each function is one repetition: it
 * builds its clusters from the repetition seed, posts a fixed set of WRs,
 * waits for the completions, checks the outputs and tears down. Only the
 * generated posts reach the simulator.
 */

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "capture/capture.hh"
#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "exp/seed_stream.hh"
#include "perfbench.hh"
#include "pitfall/detectors.hh"
#include "pitfall/microbench.hh"

namespace perfbench {

using namespace ibsim;

void
Fingerprint::add(const Fingerprint& o)
{
    packets += o.packets;
    events += o.events;
    completions += o.completions;
    vtimeNs += o.vtimeNs;
    oracleHash = fnvMix(oracleHash, o.oracleHash);
    cqHash = fnvMix(cqHash, o.cqHash);
}

std::string
Fingerprint::str() const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "packets=%" PRIu64 " events=%" PRIu64
                  " completions=%" PRIu64 " vtime_ns=%" PRIu64
                  " oracle_hash=0x%016" PRIx64 " cq_hash=0x%016" PRIx64,
                  packets, events, completions, vtimeNs, oracleHash,
                  cqHash);
    return line;
}

namespace {

constexpr std::uint64_t pageBytes = 4096;

/**
 * One cluster's lifetime inside a repetition: owns the cluster and its
 * observers in teardown order, the receive shims (traced runs), and the
 * completion queues the driver polls.
 */
class Bed
{
  public:
    Bed(RepResult& out, Tracer& tracer)
        : out_(out), tracer_(tracer), totalAtBirth_(out.phases.total())
    {}

    Bed(const Bed&) = delete;
    Bed& operator=(const Bed&) = delete;

    Cluster& cluster() { return *cluster_; }

    void
    build(rnic::DeviceProfile profile, std::size_t nodes,
          std::uint64_t seed, ClusterOptions options, bool capture)
    {
        Phase p(tracer_, "cluster.build", out_.phases.build);
        cluster_ = std::make_unique<Cluster>(std::move(profile), nodes,
                                             seed, net::LinkConfig{},
                                             options);
        if (capture)
            capture_ = std::make_unique<capture::PacketCapture>(
                cluster_->fabric());
    }

    /** Attach the oracle over every QP (before the first post). */
    void
    attachOracle()
    {
        Phase p(tracer_, "chaos.attach", out_.phases.attach);
        monitor_ = std::make_unique<chaos::InvariantMonitor>(
            cluster_->fabric());
        monitor_->watchAll(*cluster_);
    }

    /** Traced runs: route every port's ingress through a timing shim. */
    void
    installShims()
    {
        if (!tracer_.on())
            return;
        net::Fabric& fabric = cluster_->fabric();
        for (std::size_t i = 0; i < cluster_->nodeCount(); ++i) {
            Node& node = cluster_->node(i);
            shims_.push_back(std::make_unique<RxShim>(node.rnic()));
            fabric.detach(node.lid());
            fabric.attach(node.lid(), *shims_.back());
        }
    }

    verbs::CompletionQueue&
    cq(verbs::CompletionQueue& q)
    {
        cqs_.push_back(&q);
        return q;
    }

    /** Post-timing wrapper: per-call timing only in traced runs. */
    template <typename F>
    void
    post(F&& f)
    {
        ++out_.wrsPosted;
        if (!tracer_.on()) {
            f();
            return;
        }
        const auto start = Clock::now();
        f();
        out_.phases.postCalls += nsBetween(start, Clock::now());
    }

    void
    runUntil(std::uint64_t completions, Time limit)
    {
        Phase p(tracer_, "simcore.runUntilCompletions", out_.phases.run);
        if (!cluster_->runUntilCompletions(completions, limit))
            out_.errors.push_back("run hit its virtual-time limit");
    }

    /**
     * Poll every CQ, check completions, fingerprint the run and read the
     * layer counters. Must run before finish().
     */
    Fingerprint
    collect()
    {
        if (monitor_) {
            Phase p(tracer_, "chaos.finalCheck", out_.phases.finalCheck);
            monitor_->finalCheck();
        }
        Fingerprint fp;
        for (verbs::CompletionQueue* q : cqs_) {
            for (const verbs::WorkCompletion& wc : q->poll()) {
                fp.cqHash = fnvMix(fp.cqHash, wc.wrId);
                fp.cqHash = fnvMix(fp.cqHash,
                                   static_cast<std::uint64_t>(wc.status));
                fp.cqHash = fnvMix(
                    fp.cqHash,
                    static_cast<std::uint64_t>(wc.completedAt.toNs()));
            }
            out_.wrsOk += q->totalSuccess();
            fp.completions += q->totalCompletions();
        }
        Cluster& c = *cluster_;
        net::Fabric& fabric = c.fabric();
        fp.packets = fabric.totalSent();
        fp.events = c.eventsExecuted();
        fp.vtimeNs = static_cast<std::uint64_t>(c.now().toNs());
        if (monitor_) {
            fp.oracleHash = monitor_->traceHash();
            out_.counters.violations += monitor_->violationCount();
            if (!monitor_->clean())
                out_.errors.push_back("oracle violations:\n" +
                                      monitor_->report());
        }

        Counters& k = out_.counters;
        for (std::size_t i = 0; i < c.nodeCount(); ++i) {
            Node& node = c.node(i);
            for (const rnic::QpContext* qp : node.rnic().allQps()) {
                k.requestsSent += qp->stats.requestsSent;
                k.retransmissions += qp->stats.retransmissions;
                k.timeouts += qp->stats.timeouts;
                k.discardedFault += qp->stats.responsesDiscardedFault;
                k.discardedStale += qp->stats.responsesDiscardedStale;
            }
            const odp::DriverStats& d = node.driver().stats();
            k.faultsRaised += d.faultsRaised;
            k.faultsCoalesced += d.faultsCoalesced;
            const odp::BoardStats& b = node.board().stats();
            k.waitersRegistered += b.waitersRegistered;
            k.updateFailures += b.updateFailures;
            k.slowRefreshes += b.slowRefreshes;
            k.presentPages += node.memory().presentPages();
        }
        k.pktsDropped += fabric.totalDropped();
        const net::PacketPoolStats& pool = fabric.packetPool().stats();
        k.poolGrows += pool.grows;
        k.poolPeakInFlight += pool.peakInFlight;
        if (ShardedKernel* kernel = c.shardedKernel()) {
            for (std::size_t i = 0; i < kernel->islandCount(); ++i) {
                const auto ks = kernel->island(i).kernelStats();
                k.poolNodes += ks.poolNodes;
                k.cancelled += ks.cancelledTotal;
            }
            const ShardedKernel::KernelStats ks = kernel->kernelStats();
            k.rounds += ks.barriers;
            k.channelParcels += ks.channelParcels;
            k.steals += ks.steals;
            if (ks.minIslandExecuted > 0)
                k.imbalance += static_cast<double>(ks.maxIslandExecuted) /
                               static_cast<double>(ks.minIslandExecuted);
            double busy = 0;
            for (const double f : ks.workerBusyFraction)
                busy += f;
            if (!ks.workerBusyFraction.empty())
                k.busyMean += busy / static_cast<double>(
                                         ks.workerBusyFraction.size());
            out_.jobs = kernel->jobs();
        } else {
            const auto ks = c.events().kernelStats();
            k.poolNodes += ks.poolNodes;
            k.cancelled += ks.cancelledTotal;
            out_.jobs = 1;
        }
        if (capture_)
            k.captureEntries += capture_->size();
        for (const auto& shim : shims_) {
            out_.rxNs += shim->ns();
            out_.rxPkts += shim->pkts();
        }
        return fp;
    }

    capture::PacketCapture* packetCapture() { return capture_.get(); }

    /** Tear down (timed) and close this cluster's lifetime. */
    void
    finish(const Fingerprint& fp)
    {
        {
            Phase p(tracer_, "cluster.teardown", out_.phases.teardown);
            monitor_.reset();
            capture_.reset();
            cluster_.reset();
        }
        out_.fp.add(fp);
        ++out_.clusters;
        // The trial is this cluster's timed phases; output verification
        // and shim installation stay out of it.
        out_.trialNs.push_back(out_.phases.total() - totalAtBirth_);
    }

  private:
    RepResult& out_;
    Tracer& tracer_;
    double totalAtBirth_;
    /** Shims outlive the cluster: its ports point at them until then. */
    std::vector<std::unique_ptr<RxShim>> shims_;
    std::unique_ptr<Cluster> cluster_;
    std::unique_ptr<capture::PacketCapture> capture_;
    std::unique_ptr<chaos::InvariantMonitor> monitor_;
    std::vector<verbs::CompletionQueue*> cqs_;
};

/** Deterministic byte pattern of a buffer (salted per region). */
std::vector<std::uint8_t>
pattern(std::uint64_t len, std::uint64_t salt)
{
    std::vector<std::uint8_t> bytes(len);
    for (std::uint64_t i = 0; i < len; ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 131 + salt * 29 + 7);
    return bytes;
}

/** Check that @p len bytes landed: dst on @p to equals src on @p from. */
void
checkCopy(RepResult& out, Node& from, std::uint64_t src, Node& to,
          std::uint64_t dst, std::uint64_t len, const char* what)
{
    if (from.memory().read(src, len) == to.memory().read(dst, len))
        return;
    if (out.errors.size() < 8) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s data mismatch at 0x%" PRIx64 " (lid %u)", what,
                      dst, static_cast<unsigned>(to.lid()));
        out.errors.push_back(line);
    } else if (out.errors.size() == 8) {
        out.errors.push_back("... further data mismatches suppressed");
    }
}

/**
 * paper_flood: the Fig. 9 client-side-ODP cell — KNL, 2 nodes, 8192 x
 * 100 B READs over 100 RC QPs, C_ack 18, back-to-back posts with 300 ns
 * post overhead, capture off. The Fig. 3 loop of pitfall::MicroBenchmark,
 * with its phases timed separately.
 */
RepResult
paperFlood(std::uint64_t seed, Tracer& tracer, unsigned /*jobs*/)
{
    constexpr std::size_t numOps = 8192;
    constexpr std::size_t numQps = 100;
    constexpr std::uint32_t size = 100;
    const Time postOverhead = Time::ns(300);

    RepResult out;
    Bed bed(out, tracer);
    bed.build(rnic::DeviceProfile::knl(), 2, seed, {}, false);
    Cluster& cluster = bed.cluster();
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    const std::uint64_t bytes = numOps * size;

    std::uint64_t dst = 0, src = 0;
    std::uint32_t lkey = 0, rkey = 0;
    {
        Phase p(tracer, "cluster.register", out.phases.reg);
        dst = client.alloc(bytes);
        src = server.alloc(bytes);
        lkey = client.registerMemory(dst, bytes, verbs::AccessFlags::odp())
                   .lkey();
        rkey = server
                   .registerMemory(src, bytes,
                                   verbs::AccessFlags::pinned())
                   .rkey();
        server.memory().write(src, pattern(bytes, seed));
    }
    std::vector<verbs::QueuePair> qps;
    {
        Phase p(tracer, "cluster.connect", out.phases.connect);
        auto& ccq = bed.cq(client.createCq());
        auto& scq = bed.cq(server.createCq());
        for (std::size_t q = 0; q < numQps; ++q)
            qps.push_back(
                cluster
                    .connectRc(client, ccq, server, scq,
                               pitfall::MicroBenchConfig::ucxDefaultConfig())
                    .first);
        out.qpsConnected += numQps;
    }
    bed.installShims();

    const Time start = cluster.now();
    {
        Phase p(tracer, "verbs.posts", out.phases.posts);
        for (std::size_t i = 0; i < numOps; ++i) {
            const std::uint64_t off = static_cast<std::uint64_t>(size) * i;
            bed.post([&] {
                qps[i % numQps].postRead(dst + off, lkey, src + off, rkey,
                                         size, i);
            });
            cluster.advance(cluster.rng().jitter(postOverhead, 0.3));
        }
    }
    bed.runUntil(numOps, start + Time::sec(600));
    const Fingerprint fp = bed.collect();

    checkCopy(out, server, src, client, dst, bytes, "READ");
    if (out.counters.retransmissions <= numOps)
        out.errors.push_back("paper_flood: no flood (retransmissions <= "
                             "READs)");
    if (out.counters.updateFailures == 0)
        out.errors.push_back("paper_flood: no page-status update failure");
    bed.finish(fp);
    return out;
}

/** Per-pair buffers of the multi-pair flood workloads. */
struct PairBuffers
{
    Node* client = nullptr;
    Node* server = nullptr;
    std::uint64_t clientOdp = 0;  ///< READ destinations, one page per QP
    std::uint32_t clientOdpKey = 0;
    std::uint64_t clientPin = 0;  ///< WRITE sources (island_mesh)
    std::uint32_t clientPinKey = 0;
    std::uint64_t serverPin = 0;  ///< READ sources
    std::uint32_t serverPinKey = 0;
    std::uint64_t serverOdp = 0;  ///< WRITE destinations (island_mesh)
    std::uint32_t serverOdpKey = 0;
    std::vector<verbs::QueuePair> qps;
};

/**
 * Shared shape of flood_wide and island_mesh (the flood_capacity bench):
 * `pairs` client/server pairs, `qpsPerPair` RC QPs each, every QP working
 * on its own ODP page, two posting waves of opsPerWave WRs per QP. With
 * `mixed`, odd QPs WRITE into server-side ODP pages instead of READing
 * into client-side ones.
 */
struct MeshShape
{
    std::size_t pairs;
    std::size_t qpsPerPair;
    std::size_t opsPerWave;
    bool mixed;
    bool sharded;
    bool oracle;
};

/** Each WR owns one 128-B slot of its QP's page (2 x opsPerWave slots). */
constexpr std::uint64_t slotBytes = 128;
constexpr std::uint32_t wrBytes = 100;
/** Pinned source regions hold this many pages, shared round-robin. */
constexpr std::uint64_t pinnedPages = 16;

RepResult
meshRep(const MeshShape& shape, std::uint64_t seed, Tracer& tracer,
        unsigned jobs)
{
    RepResult out;
    Bed bed(out, tracer);
    ClusterOptions options;
    options.sharded = shape.sharded;
    options.jobs = shape.sharded ? jobs : 1;
    // Nodes alternate client, server, client, ... (LIDs 1 .. 2 * pairs).
    bed.build(rnic::DeviceProfile::connectX4(), 2 * shape.pairs, seed,
              options, false);
    Cluster& cluster = bed.cluster();

    // Sources only need the bytes the WRs read: one slot run per page.
    const std::uint64_t slots = 2 * shape.opsPerWave;
    const std::uint64_t odpBytes = shape.qpsPerPair * pageBytes;
    std::vector<PairBuffers> pairs(shape.pairs);
    {
        Phase p(tracer, "cluster.register", out.phases.reg);
        for (std::size_t i = 0; i < shape.pairs; ++i) {
            PairBuffers& pb = pairs[i];
            pb.client = &cluster.node(2 * i);
            pb.server = &cluster.node(2 * i + 1);
            const std::uint64_t pinBytes =
                shape.mixed ? pinnedPages * pageBytes : odpBytes;
            pb.clientOdp = pb.client->alloc(odpBytes);
            pb.clientOdpKey =
                pb.client
                    ->registerMemory(pb.clientOdp, odpBytes,
                                     verbs::AccessFlags::odp())
                    .lkey();
            pb.serverPin = pb.server->alloc(pinBytes);
            pb.serverPinKey =
                pb.server
                    ->registerMemory(pb.serverPin, pinBytes,
                                     verbs::AccessFlags::pinned())
                    .rkey();
            const std::uint64_t pages = pinBytes / pageBytes;
            for (std::uint64_t pg = 0; pg < pages; ++pg)
                pb.server->memory().write(pb.serverPin + pg * pageBytes,
                                          pattern(slots * slotBytes,
                                                  seed + pg));
            if (!shape.mixed)
                continue;
            pb.clientPin = pb.client->alloc(pinBytes);
            pb.clientPinKey =
                pb.client
                    ->registerMemory(pb.clientPin, pinBytes,
                                     verbs::AccessFlags::pinned())
                    .lkey();
            for (std::uint64_t pg = 0; pg < pages; ++pg)
                pb.client->memory().write(pb.clientPin + pg * pageBytes,
                                          pattern(slots * slotBytes,
                                                  ~seed + pg));
            pb.serverOdp = pb.server->alloc(odpBytes);
            pb.serverOdpKey =
                pb.server
                    ->registerMemory(pb.serverOdp, odpBytes,
                                     verbs::AccessFlags::odp())
                    .rkey();
        }
    }
    {
        Phase p(tracer, "cluster.connect", out.phases.connect);
        for (PairBuffers& pb : pairs) {
            auto& ccq = bed.cq(pb.client->createCq());
            auto& scq = bed.cq(pb.server->createCq());
            for (std::size_t q = 0; q < shape.qpsPerPair; ++q)
                pb.qps.push_back(
                    cluster
                        .connectRc(
                            *pb.client, ccq, *pb.server, scq,
                            pitfall::MicroBenchConfig::ucxDefaultConfig())
                        .first);
            out.qpsConnected += shape.qpsPerPair;
        }
    }
    if (shape.oracle)
        bed.attachOracle();
    bed.installShims();

    // WR q of a pair works on page q of the pair's ODP regions and on the
    // shared pinned page q % pages of the source region.
    const std::uint64_t pinPages = shape.mixed ? pinnedPages
                                               : shape.qpsPerPair;
    const auto isWrite = [&](std::size_t q) {
        return shape.mixed && q % 2 == 1;
    };
    const auto postWave = [&](std::size_t wave) {
        Phase p(tracer, "verbs.posts", out.phases.posts);
        for (PairBuffers& pb : pairs) {
            for (std::size_t q = 0; q < shape.qpsPerPair; ++q) {
                for (std::size_t op = 0; op < shape.opsPerWave; ++op) {
                    const std::uint64_t slot = wave * shape.opsPerWave + op;
                    const std::uint64_t odpOff =
                        q * pageBytes + slot * slotBytes;
                    const std::uint64_t pinOff =
                        (q % pinPages) * pageBytes + slot * slotBytes;
                    verbs::QueuePair& qp = pb.qps[q];
                    if (isWrite(q)) {
                        bed.post([&] {
                            qp.postWrite(pb.clientPin + pinOff,
                                         pb.clientPinKey,
                                         pb.serverOdp + odpOff,
                                         pb.serverOdpKey, wrBytes,
                                         slot + 1);
                        });
                    } else {
                        bed.post([&] {
                            qp.postRead(pb.clientOdp + odpOff,
                                        pb.clientOdpKey,
                                        pb.serverPin + pinOff,
                                        pb.serverPinKey, wrBytes, slot + 1);
                        });
                    }
                }
            }
        }
    };
    const std::uint64_t perWave =
        shape.pairs * shape.qpsPerPair * shape.opsPerWave;
    postWave(0);
    bed.runUntil(perWave, Time::sec(600));
    postWave(1);
    bed.runUntil(2 * perWave, Time::sec(600));
    const Fingerprint fp = bed.collect();

    for (PairBuffers& pb : pairs) {
        for (std::size_t q = 0; q < shape.qpsPerPair; ++q) {
            const std::uint64_t odpOff = q * pageBytes;
            const std::uint64_t pinOff = (q % pinPages) * pageBytes;
            // Gaps between slots stay zero on the destination but hold
            // pattern bytes on the source: compare slot by slot.
            for (std::uint64_t s = 0; s < slots; ++s) {
                const std::uint64_t o = s * slotBytes;
                if (isWrite(q))
                    checkCopy(out, *pb.client, pb.clientPin + pinOff + o,
                              *pb.server, pb.serverOdp + odpOff + o,
                              wrBytes, "WRITE");
                else
                    checkCopy(out, *pb.server, pb.serverPin + pinOff + o,
                              *pb.client, pb.clientOdp + odpOff + o,
                              wrBytes, "READ");
            }
        }
    }
    bed.finish(fp);
    return out;
}

/**
 * flood_wide: 4096 RC QPs over 4 client/server pairs on the single-queue
 * kernel, oracle off; each QP READs 100 B into its own client-ODP page,
 * two waves of two READs (the flood_capacity qps=4096 cell).
 */
RepResult
floodWide(std::uint64_t seed, Tracer& tracer, unsigned jobs)
{
    return meshRep({4, 1024, 2, false, false, false}, seed, tracer, jobs);
}

/**
 * island_mesh: 64 nodes (32 pairs), 16384 QPs on the sharded kernel with
 * the oracle attached before the first post; client QPs alternate READs
 * into client-ODP pages with WRITEs into server-ODP pages.
 */
RepResult
islandMesh(std::uint64_t seed, Tracer& tracer, unsigned jobs)
{
    return meshRep({32, 512, 2, true, true, true}, seed, tracer, jobs);
}

/**
 * damming_sweep: one sweep of fresh 2-node Sec. V micro-benchmarks (2
 * READs, both-side ODP, KNL, C_ack 1, capture on) over the 0..6 ms
 * interval grid, with detectDamming and detectFlood on every capture.
 */
RepResult
dammingSweep(std::uint64_t seed, Tracer& tracer, unsigned /*jobs*/)
{
    constexpr std::size_t numOps = 2;
    constexpr std::uint32_t size = 100;
    const Time postOverhead = Time::us(1);
    const exp::SeedStream seeds("perfbench.damming_sweep", seed);

    RepResult out;
    out.timedOutByInterval.assign(dammingIntervals, 0);
    for (std::size_t iv = 0; iv < dammingIntervals; ++iv) {
        const Time interval = Time::ms(dammingIntervalMs(iv));
        Bed bed(out, tracer);
        bed.build(rnic::DeviceProfile::knl(), 2, seeds.trialSeed(iv, 0), {},
                  true);
        Cluster& cluster = bed.cluster();
        Node& client = cluster.node(0);
        Node& server = cluster.node(1);
        const std::uint64_t bytes = numOps * size;
        std::uint64_t dst = 0, src = 0;
        std::uint32_t lkey = 0, rkey = 0;
        {
            Phase p(tracer, "cluster.register", out.phases.reg);
            dst = client.alloc(bytes);
            src = server.alloc(bytes);
            lkey = client
                       .registerMemory(dst, bytes,
                                       verbs::AccessFlags::odp())
                       .lkey();
            rkey = server
                       .registerMemory(src, bytes,
                                       verbs::AccessFlags::odp())
                       .rkey();
            server.memory().write(src, pattern(bytes, iv));
        }
        verbs::QueuePair qp;
        {
            Phase p(tracer, "cluster.connect", out.phases.connect);
            auto& ccq = bed.cq(client.createCq());
            auto& scq = bed.cq(server.createCq());
            qp = cluster
                     .connectRc(client, ccq, server, scq,
                                pitfall::MicroBenchConfig::
                                    smallTimeoutConfig())
                     .first;
            ++out.qpsConnected;
        }
        bed.installShims();

        const Time start = cluster.now();
        {
            Phase p(tracer, "verbs.posts", out.phases.posts);
            for (std::size_t i = 0; i < numOps; ++i) {
                bed.post([&] {
                    qp.postRead(dst + size * i, lkey, src + size * i, rkey,
                                size, i);
                });
                cluster.advance(cluster.rng().jitter(postOverhead, 0.3));
                if (interval > Time())
                    cluster.advance(cluster.rng().jitter(interval, 0.01));
            }
        }
        bed.runUntil(numOps, start + Time::sec(120));
        const Fingerprint fp = bed.collect();
        const bool timedOut = qp.stats().timeouts > 0;

        bool dammed = false;
        {
            Phase p(tracer, "pitfall.detect", out.phases.detect);
            dammed = !pitfall::detectDamming(*bed.packetCapture()).empty();
            // Flood detection is part of the timed detector cost; only
            // the damming verdict is compared with the transport.
            (void)pitfall::detectFlood(*bed.packetCapture());
        }
        out.timedOutByInterval[iv] += timedOut ? 1 : 0;
        out.detectorAgree += dammed == timedOut ? 1 : 0;

        checkCopy(out, server, src, client, dst, bytes, "READ");
        bed.finish(fp);
    }
    return out;
}

} // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"paper_flood",
         "Fig. 9 client-ODP flood cell: timer-driven blind retransmits, "
         "rnic + odp status board + simcore timers",
         paperFlood, false},
        {"flood_wide",
         "4096 QPs single-queue: QP steering, per-QP requester, page table "
         "and mem page store",
         floodWide, false},
        {"island_mesh",
         "64-node sharded mesh with the oracle: rounds, channels, stealing, "
         "responder-side faults",
         islandMesh, true},
        {"damming_sweep",
         "fresh 2-node Sec. V trials: cluster setup/teardown, transport "
         "timeouts, capture and detectors",
         dammingSweep, false},
    };
    return all;
}

} // namespace perfbench
