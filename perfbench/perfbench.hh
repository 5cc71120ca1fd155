/**
 * @file
 * Shared types of the perfbench driver: repetition results, the
 * simulated fingerprint, and the outside-in tracer.
 *
 * Every workload is a closed batch: one driver thread builds one or more
 * clusters, posts a fixed set of work requests generated from the
 * repetition seed, waits for their completions and tears the clusters
 * down. One call of a workload function is one *repetition*; main.cc
 * repeats it for the requested wall-clock budget and reports medians.
 *
 * Tracing is outside-in: the tracer times calls the benchmark makes into
 * each layer's public API, and (traced runs only) wraps every node's
 * RNIC in a forwarding net::PortHandler shim that times Rnic::receive.
 * Nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "rnic/rnic.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Wall nanoseconds between two clock readings. */
inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/** FNV-1a step over one 64-bit word. */
inline std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xffu;
        hash *= 1099511628211ull;
    }
    return hash;
}

constexpr std::uint64_t fnvBasis = 14695981039346656037ull;

/**
 * What the simulation computed, independent of wall time. Two runs of the
 * same workload and seed must agree exactly — traced or not, at any
 * sharded-kernel worker count.
 */
struct Fingerprint
{
    std::uint64_t packets = 0;      ///< Fabric::totalSent
    std::uint64_t events = 0;       ///< events executed
    std::uint64_t completions = 0;  ///< CQ entries delivered
    std::uint64_t vtimeNs = 0;      ///< final virtual time (summed)
    std::uint64_t oracleHash = 0;   ///< InvariantMonitor::traceHash (0: none)
    std::uint64_t cqHash = fnvBasis;  ///< FNV over (wrId, status, time)

    bool operator==(const Fingerprint&) const = default;

    /** Fold another cluster's fingerprint into this one. */
    void add(const Fingerprint& o);

    std::string str() const;
};

/** One coarse span, kept in memory and written out at exit. */
struct Span
{
    const char* name;
    double startNs;  ///< since the tracer's epoch
    double durNs;
    std::uint32_t rep;
};

/**
 * Span recorder. Disabled tracers record nothing; phase timing itself is
 * always on (it feeds the end-to-end metrics and costs two clock reads
 * per phase).
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }

    void
    record(const char* name, Clock::time_point a, Clock::time_point b)
    {
        if (!on_)
            return;
        if (spans_.size() < maxSpans)
            spans_.push_back({name, nsBetween(epoch_, a), nsBetween(a, b),
                              rep_});
        else
            ++dropped_;
    }

    void setRep(std::uint32_t rep) { rep_ = rep; }

    /** Write every span as one JSON object per line. @return success. */
    bool write(const std::string& path) const;

    std::size_t size() const { return spans_.size(); }

    /** Spans not kept because the in-memory cap was reached. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    /** ~4 MB in memory; a damming run records ~175 spans per sweep. */
    static constexpr std::size_t maxSpans = 1u << 17;
    bool on_;
    Clock::time_point epoch_;
    std::uint32_t rep_ = 0;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** Times one phase into an accumulator and records it as a span. */
class Phase
{
  public:
    Phase(Tracer& tracer, const char* name, double& acc)
        : tracer_(tracer), name_(name), acc_(acc), start_(Clock::now())
    {}

    ~Phase()
    {
        const auto stop = Clock::now();
        acc_ += nsBetween(start_, stop);
        tracer_.record(name_, start_, stop);
    }

    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

  private:
    Tracer& tracer_;
    const char* name_;
    double& acc_;
    Clock::time_point start_;
};

/**
 * Forwarding port handler: the traced run re-attaches every RNIC's LID to
 * one of these (Fabric::detach/attach). It times Rnic::receive per packet
 * and forwards port events. A port belongs to one island, so the sums are
 * written by one worker only and need no locks.
 */
class RxShim final : public ibsim::net::PortHandler
{
  public:
    explicit RxShim(ibsim::rnic::Rnic& rnic) : rnic_(rnic) {}

    void
    receive(const ibsim::net::Packet& pkt) override
    {
        const auto start = Clock::now();
        rnic_.receive(pkt);
        ns_ += nsBetween(start, Clock::now());
        ++pkts_;
    }

    void
    portEvent(const ibsim::net::PortEvent& ev) override
    {
        rnic_.portEvent(ev);
    }

    double ns() const { return ns_; }
    std::uint64_t pkts() const { return pkts_; }

  private:
    ibsim::rnic::Rnic& rnic_;
    double ns_ = 0;
    std::uint64_t pkts_ = 0;
};

/** Layer counters read from the public *Stats accessors after a run. */
struct Counters
{
    /** @{ rnic (summed over every QP / RNIC). */
    std::uint64_t requestsSent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t discardedFault = 0;
    std::uint64_t discardedStale = 0;
    /** @} */
    /** @{ simcore */
    std::uint64_t poolNodes = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rounds = 0;
    std::uint64_t channelParcels = 0;
    std::uint64_t steals = 0;
    double imbalance = 0;
    double busyMean = 0;
    /** @} */
    /** @{ net */
    std::uint64_t pktsDropped = 0;
    std::uint64_t poolGrows = 0;
    std::uint64_t poolPeakInFlight = 0;
    /** @} */
    /** @{ odp */
    std::uint64_t faultsRaised = 0;
    std::uint64_t faultsCoalesced = 0;
    std::uint64_t waitersRegistered = 0;
    std::uint64_t updateFailures = 0;
    std::uint64_t slowRefreshes = 0;
    /** @} */
    std::uint64_t presentPages = 0;  ///< mem
    std::uint64_t violations = 0;    ///< chaos
    std::uint64_t captureEntries = 0;  ///< capture
};

/** Wall nanoseconds per phase, summed over a repetition's clusters. */
struct Phases
{
    double build = 0;     ///< Cluster construction (+ capture attach)
    double reg = 0;       ///< allocation, fill and MR registration
    double connect = 0;   ///< CQ creation and RC connection
    double attach = 0;    ///< oracle construction and watchAll
    double posts = 0;     ///< the posting loop (includes its advances)
    double postCalls = 0; ///< QueuePair::post* calls alone (traced only)
    double run = 0;       ///< runUntilCompletions
    double finalCheck = 0;  ///< InvariantMonitor::finalCheck
    double detect = 0;    ///< pitfall detectors
    double teardown = 0;  ///< oracle, capture and cluster destruction

    double setup() const { return build + reg + connect + attach; }
    double runPhase() const { return posts + run; }
    double
    total() const
    {
        return setup() + runPhase() + finalCheck + detect + teardown;
    }
};

/** Everything one repetition measured and checked. */
struct RepResult
{
    Fingerprint fp;
    Phases phases;
    Counters counters;
    std::uint64_t clusters = 0;
    std::uint64_t qpsConnected = 0;
    std::uint64_t wrsPosted = 0;
    std::uint64_t wrsOk = 0;
    /** Timed wall ns of each cluster, build through teardown. */
    std::vector<double> trialNs;
    /** @{ Receive shims (traced runs only). */
    double rxNs = 0;
    std::uint64_t rxPkts = 0;
    /** @} */
    /** @{ damming_sweep: per-interval timeouts and detector verdicts. */
    std::vector<std::uint64_t> timedOutByInterval;
    std::uint64_t detectorAgree = 0;
    /** @} */
    unsigned jobs = 0;
    /** Output-check failures (empty = every check passed). */
    std::vector<std::string> errors;
};

/** A workload: its name, why it exists, and one repetition. */
struct Workload
{
    const char* name;
    const char* why;
    RepResult (*rep)(std::uint64_t seed, Tracer& tracer, unsigned jobs);
    bool sharded;
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<Workload>& workloads();

/** damming_sweep's interval grid: 0 .. 6 ms in 0.25 ms steps. */
constexpr std::size_t dammingIntervals = 25;
inline double
dammingIntervalMs(std::size_t i)
{
    return 0.25 * static_cast<double>(i);
}

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
