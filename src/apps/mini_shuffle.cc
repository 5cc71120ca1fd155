#include "apps/mini_shuffle.hh"

#include <algorithm>

#include "cluster/cluster.hh"
#include "mem/address_space.hh"
#include "ucxlite/ucx_lite.hh"

namespace ibsim {
namespace apps {

namespace {

rnic::DeviceProfile
knlProfile()
{
    auto p = rnic::DeviceProfile::knl();
    // Xeon Phi's slow cores stretch fault handling well past the generic
    // band.
    p.faultTiming.faultLatencyMin = Time::us(400);
    p.faultTiming.faultLatencyMax = Time::us(2000);
    return p;
}

rnic::DeviceProfile
reedbushProfile()
{
    return rnic::DeviceProfile::table1()[2];  // Reedbush-H
}

rnic::DeviceProfile
abciProfile()
{
    auto p = rnic::DeviceProfile::table1()[4];  // ABCI
    // Fast Skylake hosts resolve faults quickly, so fewer QPs are deep
    // enough into retransmission to miss the status update -- which is why
    // ABCI degrades the least in the paper's table.
    p.faultTiming.faultLatencyMin = Time::us(250);
    p.faultTiming.faultLatencyMax = Time::us(600);
    return p;
}

ShuffleRow
row(const char* system, const char* example, rnic::DeviceProfile profile,
    std::size_t qps, std::size_t wave_qps, std::size_t waves,
    double compute_model_sec)
{
    ShuffleRow r;
    r.system = system;
    r.example = example;
    r.profile = std::move(profile);
    r.qps = qps;
    r.waveQps = wave_qps;
    r.waves = waves;
    r.computeTotal = Time::sec(compute_model_sec);
    return r;
}

} // namespace

std::vector<ShuffleRow>
ShuffleRow::table13()
{
    // QP counts are the paper's; compute is the ODP-disabled column scaled
    // 1:10; waves calibrate how much of the job is shuffle fetches.
    std::vector<ShuffleRow> rows;
    // SparkTC
    rows.push_back(
        row("KNL (2)", "SparkTC", knlProfile(), 411, 256, 10, 30.3));
    rows.push_back(row("Reedbush-H (2)", "SparkTC", reedbushProfile(),
                       980, 256, 45, 3.97));
    rows.push_back(
        row("ABCI (2)", "SparkTC", abciProfile(), 2191, 64, 12, 8.39));
    rows.push_back(
        row("ABCI (4)", "SparkTC", abciProfile(), 2858, 192, 60, 4.17));
    // mllib.RecommendationExample
    rows.push_back(row("KNL (2)", "mllib.RecommendationExample",
                       knlProfile(), 210, 192, 4, 10.0));
    rows.push_back(row("Reedbush-H (2)", "mllib.RecommendationExample",
                       reedbushProfile(), 980, 256, 14, 2.19));
    rows.push_back(row("ABCI (2)", "mllib.RecommendationExample",
                       abciProfile(), 2191, 64, 37, 2.9));
    rows.push_back(row("ABCI (4)", "mllib.RecommendationExample",
                       abciProfile(), 1953, 128, 30, 2.43));
    // mllib.RankingMetricsExample
    rows.push_back(row("KNL (2)", "mllib.RankingMetricsExample",
                       knlProfile(), 389, 256, 8, 51.7));
    rows.push_back(row("Reedbush-H (2)", "mllib.RankingMetricsExample",
                       reedbushProfile(), 980, 256, 15, 4.66));
    rows.push_back(row("ABCI (2)", "mllib.RankingMetricsExample",
                       abciProfile(), 2191, 192, 120, 10.7));
    rows.push_back(row("ABCI (4)", "mllib.RankingMetricsExample",
                       abciProfile(), 2667, 512, 48, 8.32));
    return rows;
}

ShuffleResult
MiniShuffle::run(std::uint64_t seed) const
{
    Cluster cluster(row_.profile, 2, seed);
    Node& reducer = cluster.node(0);
    Node& mapper = cluster.node(1);

    auto& reducer_cq = reducer.createCq();
    auto& mapper_cq = mapper.createCq();

    // Connections are established once per job (Spark reuses them).
    std::vector<verbs::QueuePair> qps;
    qps.reserve(row_.qps);
    const verbs::QpConfig ucx = ucxlite::UcxConfig::ucxDefaults();
    for (std::size_t q = 0; q < row_.qps; ++q) {
        auto [rqp, mqp] = cluster.connectRc(reducer, reducer_cq, mapper,
                                            mapper_cq, ucx);
        qps.push_back(rqp);
    }

    const auto access = odp_ ? verbs::AccessFlags::odp()
                             : verbs::AccessFlags::pinned();
    const Time compute_per_wave =
        row_.computeTotal / static_cast<double>(row_.waves);
    const std::size_t wave_qps = std::min(row_.waveQps, row_.qps);
    const std::uint64_t wave_bytes =
        static_cast<std::uint64_t>(wave_qps) * row_.blockSize;

    ShuffleResult result;
    const Time start = cluster.now();
    std::uint64_t expected = 0;

    for (std::size_t w = 0; w < row_.waves; ++w) {
        const Time wave_start = cluster.now();

        // Fresh shuffle buffers per wave: new map output, new fetch
        // destinations. Under ODP these start cold on the RNIC.
        const std::uint64_t fetch = reducer.alloc(wave_bytes);
        const std::uint64_t blocks = mapper.alloc(wave_bytes);
        mapper.memory().touch(blocks, wave_bytes);  // map output exists
        auto& fetch_mr = reducer.registerMemory(fetch, wave_bytes, access);
        auto& block_mr = mapper.registerMemory(blocks, wave_bytes,
                                               verbs::AccessFlags::
                                                   pinned());

        // This wave's task set fetches its blocks; the task set rotates
        // over the job's connections.
        for (std::size_t q = 0; q < wave_qps; ++q) {
            const std::size_t conn = (w * wave_qps + q) % row_.qps;
            const std::uint64_t off =
                static_cast<std::uint64_t>(q) * row_.blockSize;
            qps[conn].postRead(fetch + off, fetch_mr.lkey(), blocks + off,
                               block_mr.rkey(), row_.blockSize,
                               /*wr_id=*/w * wave_qps + q);
            cluster.advance(Time::us(1));
        }
        ++expected;
        if (!cluster.runUntil(
                [&] {
                    return reducer_cq.totalSuccess() >=
                           expected * wave_qps;
                },
                cluster.now() + Time::sec(120))) {
            return result;  // incomplete: wave stalled beyond any reason
        }
        const Time wave_time = cluster.now() - wave_start;
        if (wave_time > result.longestWave)
            result.longestWave = wave_time;

        // Task compute between shuffle waves.
        cluster.advance(cluster.rng().jitter(compute_per_wave, 0.05));
    }

    result.completed = true;
    result.executionTime = cluster.now() - start;
    for (const auto& qp : qps) {
        result.timeouts += qp.stats().timeouts;
        result.retransmissions += qp.stats().retransmissions;
    }
    result.updateFailures = reducer.board().stats().updateFailures;
    result.totalPackets = cluster.fabric().totalSent();
    return result;
}

} // namespace apps
} // namespace ibsim
