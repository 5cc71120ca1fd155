/**
 * @file
 * Randomized protocol stress: random mixes of verbs, sizes, ODP modes and
 * injected loss, checked against the invariants that must survive
 * anything — every posted WR completes exactly once, reliable data is
 * intact, and no QP ends in error unless retries were exhausted.
 */

#include <gtest/gtest.h>

#include <map>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "simcore/rng.hh"

using namespace ibsim;

namespace {

struct FuzzParams
{
    std::uint64_t seed;
    double lossRate;
    bool clientOdp;
    bool serverOdp;
};

class FuzzSweep : public ::testing::TestWithParam<FuzzParams>
{};

} // namespace

TEST_P(FuzzSweep, RandomWorkloadKeepsInvariants)
{
    const FuzzParams params = GetParam();
    Cluster cluster(rnic::DeviceProfile::knl(), 2, params.seed);
    Node& client = cluster.node(0);
    Node& server = cluster.node(1);
    auto& ccq = client.createCq();
    auto& scq = server.createCq();

    verbs::QpConfig config;
    config.cack = 1;
    config.cretry = 7;
    auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq, config);

    constexpr std::uint64_t area = 256 * 1024;
    const auto cbuf = client.alloc(area);
    const auto sbuf = server.alloc(area);
    auto& cmr = client.registerMemory(
        cbuf, area,
        params.clientOdp ? verbs::AccessFlags::odp()
                         : verbs::AccessFlags::pinned());
    auto& smr = server.registerMemory(
        sbuf, area,
        params.serverOdp ? verbs::AccessFlags::odp()
                         : verbs::AccessFlags::pinned());

    // Host-side data exists everywhere; the RNIC view may be cold.
    std::vector<std::uint8_t> sdata(area);
    for (std::uint64_t i = 0; i < area; ++i)
        sdata[i] = static_cast<std::uint8_t>(i * 7 + 1);
    server.memory().write(sbuf, sdata);
    client.memory().write(cbuf, std::vector<std::uint8_t>(area, 0xCC));

    chaos::FaultInjector loss(params.seed);
    if (params.lossRate > 0) {
        loss.addStage(std::make_unique<chaos::DropStage>(
            chaos::PacketFilter{}, params.lossRate));
        cluster.fabric().setFaultHook(&loss);
    }

    Rng rng(params.seed * 977 + 13);
    struct Issued
    {
        int kind;  // 0 read, 1 write, 2 send, 3 fetchadd
        std::uint64_t loff, roff;
        std::uint32_t len;
    };
    std::map<std::uint64_t, Issued> issued;

    constexpr std::size_t ops = 120;
    std::size_t recvs_posted = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const int kind = static_cast<int>(rng.uniformInt(0, 3));
        // Offsets land anywhere (page-misaligned on purpose); lengths
        // span one to a few MTUs for reads/writes.
        const std::uint32_t len =
            kind >= 3 ? 8
                      : static_cast<std::uint32_t>(
                            rng.uniformInt(1, 12000));
        const std::uint64_t loff = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(area - len)));
        const std::uint64_t roff = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(area - len)));
        issued[i] = {kind, loff, roff, len};

        switch (kind) {
          case 0:
            cqp.postRead(cbuf + loff, cmr.lkey(), sbuf + roff, smr.rkey(),
                         len, i);
            break;
          case 1:
            cqp.postWrite(cbuf + loff, cmr.lkey(), sbuf + roff,
                          smr.rkey(), len, i);
            break;
          case 2:
            sqp.postRecv(sbuf + roff, smr.lkey(),
                         static_cast<std::uint32_t>(area - roff),
                         100000 + recvs_posted);
            ++recvs_posted;
            cqp.postSend(cbuf + loff, cmr.lkey(), len, i);
            break;
          case 3:
            cqp.postFetchAdd(cbuf + loff, cmr.lkey(),
                             sbuf + (roff & ~7ull), smr.rkey(), 1, i);
            break;
        }
        cluster.advance(rng.uniformTime(Time::us(1), Time::us(400)));
    }

    // Everything must complete (loss <= 15% cannot exhaust 7 retries).
    ASSERT_TRUE(cluster.runUntil(
        [&] { return ccq.totalCompletions() >= ops; }, Time::sec(120)))
        << "only " << ccq.totalCompletions() << " of " << ops;

    std::map<std::uint64_t, int> seen;
    bool any_error = false;
    for (const auto& wc : ccq.poll()) {
        ++seen[wc.wrId];
        any_error |= !wc.ok();
    }
    EXPECT_FALSE(any_error);
    EXPECT_FALSE(cqp.inError());
    // Exactly-once completion per WR.
    for (std::uint64_t i = 0; i < ops; ++i)
        EXPECT_EQ(seen[i], 1) << "wr " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, FuzzSweep,
    ::testing::Values(FuzzParams{1, 0.0, false, false},
                      FuzzParams{2, 0.0, true, false},
                      FuzzParams{3, 0.0, false, true},
                      FuzzParams{4, 0.0, true, true},
                      FuzzParams{5, 0.05, false, false},
                      FuzzParams{6, 0.05, true, true},
                      FuzzParams{7, 0.15, false, false},
                      FuzzParams{8, 0.10, true, true},
                      FuzzParams{9, 0.02, true, false},
                      FuzzParams{10, 0.02, false, true}));
