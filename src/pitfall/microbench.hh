/**
 * @file
 * The paper's micro-benchmark (Fig. 3) as a reusable harness.
 *
 * A client node issues num_ops READ operations to a server node, assigning
 * operation i to QP i % num_qps and to buffer offset size * i (the memory
 * layout of Fig. 10), sleeping `interval` between posts, then blocks until
 * every completion arrives. Which sides register their buffers with ODP is
 * selected by OdpMode. Every pitfall experiment of Secs. V and VI is a
 * parameterization of this class.
 */

#ifndef IBSIM_PITFALL_MICROBENCH_HH
#define IBSIM_PITFALL_MICROBENCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "capture/capture.hh"
#include "cluster/cluster.hh"
#include "rnic/device_profile.hh"
#include "simcore/time.hh"
#include "verbs/types.hh"

namespace ibsim {
namespace pitfall {

/** Which sides of the READ register their buffers on-demand. */
enum class OdpMode : std::uint8_t
{
    None,        ///< both buffers pinned
    ServerSide,  ///< remote (read source) buffer is ODP
    ClientSide,  ///< local (read destination) buffer is ODP
    BothSide,    ///< both buffers are ODP
};

const char* odpModeName(OdpMode mode);

/** Parameters of one micro-benchmark run (paper Fig. 3). */
struct MicroBenchConfig
{
    std::size_t numOps = 2;
    std::size_t numQps = 1;
    std::uint32_t size = 100;        ///< message size in bytes
    Time interval = Time::ms(1);     ///< usleep between posts
    OdpMode odpMode = OdpMode::BothSide;

    /** QP attributes; Sec. V uses cack=1, cretry=7, min RNR 1.28 ms. */
    verbs::QpConfig qpConfig = smallTimeoutConfig();

    /** Host-side cost of posting one WR (spreads the posts slightly). */
    Time postOverhead = Time::us(1);

    /** Give up waiting for completions after this much virtual time. */
    Time waitLimit = Time::sec(120);

    /** Whether to attach a packet capture (cheap, but off for huge runs). */
    bool capture = true;

    /** Sec. V settings: minimal C_ack (clamps to the vendor floor). */
    static verbs::QpConfig
    smallTimeoutConfig()
    {
        verbs::QpConfig config;
        config.cack = 1;
        config.cretry = 7;
        config.minRnrNakDelay = Time::ms(1.28);
        return config;
    }

    /** Sec. VI / UCX-default settings: C_ack = 18. */
    static verbs::QpConfig
    ucxDefaultConfig()
    {
        verbs::QpConfig config;
        config.cack = 18;
        config.cretry = 7;
        // 1.28 ms, not UcxConfig::ucxDefaults()' 0.96: the fig9 golden.
        config.minRnrNakDelay = Time::ms(1.28);
        return config;
    }
};

/** Everything measured in one run. */
struct MicroBenchResult
{
    bool completedAll = false;
    bool qpError = false;
    Time executionTime;

    /** Per-operation completion time (Time::max() if incomplete). */
    std::vector<Time> completionTimes;

    /** Transport events aggregated over all client QPs. */
    std::uint64_t timeouts = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rnrNaksReceived = 0;
    std::uint64_t seqNaksReceived = 0;
    std::uint64_t responsesDiscardedFault = 0;
    std::uint64_t responsesDiscardedStale = 0;

    std::uint64_t clientFaults = 0;
    std::uint64_t serverFaults = 0;
    std::uint64_t updateFailures = 0;

    /** Total packets on the fabric (Fig. 9b), 0 without capture. */
    std::uint64_t totalPackets = 0;

    /** A transport timeout fired somewhere (the damming signature). */
    bool timedOut() const { return timeouts > 0; }
};

/**
 * One micro-benchmark instance: builds a fresh two-node cluster, runs the
 * Fig. 3 loop once, and keeps the cluster alive for post-hoc inspection
 * (captures, traces, stats).
 */
class MicroBenchmark
{
  public:
    MicroBenchmark(MicroBenchConfig config, rnic::DeviceProfile profile,
                   std::uint64_t seed);
    ~MicroBenchmark();

    /** Execute the benchmark loop; callable once. */
    MicroBenchResult run();

    /**
     * Called from run() once every QP is connected and every MR is
     * registered, before the first post — the attach point for
     * observers that need the QPs to exist (chaos invariant monitor).
     */
    void
    setQpReadyHook(std::function<void()> hook)
    {
        qpReadyHook_ = std::move(hook);
    }

    Cluster& cluster() { return *cluster_; }
    Node& client() { return cluster_->node(0); }
    Node& server() { return cluster_->node(1); }

    /** The capture, if MicroBenchConfig::capture was set. */
    capture::PacketCapture* packetCapture() { return capture_.get(); }

    const MicroBenchConfig& config() const { return config_; }

    /** Client QPs, in creation order. */
    const std::vector<verbs::QueuePair>& clientQps() const { return qps_; }

    /** @{ The benchmark buffers' MRs (valid once run() registered them). */
    verbs::MemoryRegion* clientMr() { return clientMr_; }
    verbs::MemoryRegion* serverMr() { return serverMr_; }
    /** @} */

  private:
    MicroBenchConfig config_;
    std::function<void()> qpReadyHook_;
    std::unique_ptr<Cluster> cluster_;
    std::unique_ptr<capture::PacketCapture> capture_;
    std::vector<verbs::QueuePair> qps_;
    verbs::MemoryRegion* clientMr_ = nullptr;
    verbs::MemoryRegion* serverMr_ = nullptr;
    bool ran_ = false;
};

} // namespace pitfall
} // namespace ibsim

#endif // IBSIM_PITFALL_MICROBENCH_HH
