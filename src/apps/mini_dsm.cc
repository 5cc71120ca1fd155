#include "apps/mini_dsm.hh"

#include <functional>

#include "cluster/cluster.hh"
#include "mem/address_space.hh"

namespace ibsim {
namespace apps {

namespace {

/** Directory pages first-touched during init. */
constexpr std::size_t firstTouchPages = 32;

} // namespace

DsmSystemParams
DsmSystemParams::knl()
{
    DsmSystemParams p;
    p.name = "KNL (2 nodes)";
    p.profile = rnic::DeviceProfile::knl();
    // Xeon Phi's slow cores dominate: measured ~2.28 s without ODP.
    p.hostSetup = Time::sec(2.2);
    p.lockGapMin = Time::ms(0.3);
    p.lockGapMax = Time::ms(7.0);
    return p;
}

DsmSystemParams
DsmSystemParams::reedbushH()
{
    DsmSystemParams p;
    p.name = "Reedbush-H (2 nodes)";
    auto catalog = rnic::DeviceProfile::table1();
    p.profile = catalog[2];  // Reedbush-H ConnectX-4
    p.hostSetup = Time::sec(0.44);
    // A faster host spends less time between the lock READ and the
    // release, but its gap distribution is wide relative to the pending
    // window, so damming strikes less often (matching the measured
    // averages).
    p.lockGapMin = Time::ms(2.0);
    p.lockGapMax = Time::ms(12.0);
    return p;
}

DsmResult
MiniDsm::run(std::uint64_t seed) const
{
    Cluster cluster(system_.profile, 2, seed);
    Node& home = cluster.node(0);
    Node& worker = cluster.node(1);

    const Time start = cluster.now();

    // 1. Host-side setup (allocator, signal handlers, MPI windows).
    cluster.advance(cluster.rng().jitter(system_.hostSetup, 0.03));

    // 2. Register the global region on the home node and a mirror +
    //    message buffers on the worker.
    const std::uint64_t global = home.alloc(config_.memoryBytes);
    const std::uint64_t mirror = worker.alloc(config_.memoryBytes);
    const std::uint64_t msg_home = home.alloc(mem::pageSize);
    const std::uint64_t msg_worker = worker.alloc(mem::pageSize);

    const auto access = config_.odp ? verbs::AccessFlags::odp()
                                    : verbs::AccessFlags::pinned();
    if (!config_.odp) {
        // Conventional registration pins every page down first.
        const double pages = static_cast<double>(
            (config_.memoryBytes + mem::pageSize - 1) / mem::pageSize);
        cluster.advance(system_.pinPerPage * (2.0 * pages));
    }
    auto& home_mr = home.registerMemory(global, config_.memoryBytes,
                                        access);
    auto& worker_mr = worker.registerMemory(mirror, config_.memoryBytes,
                                            access);
    auto& home_msg_mr = home.registerMemory(msg_home, mem::pageSize,
                                            verbs::AccessFlags::pinned());
    auto& worker_msg_mr = worker.registerMemory(
        msg_worker, mem::pageSize, verbs::AccessFlags::pinned());

    auto& home_cq = home.createCq();
    auto& worker_cq = worker.createCq();
    auto [wqp, hqp] = cluster.connectRc(worker, worker_cq, home, home_cq,
                                        config_.qpConfig);

    DsmResult result;
    const Time limit = start + Time::sec(60);
    const auto ran = [&](const std::function<bool()>& pred) {
        return cluster.runUntil(pred, limit);
    };

    // 3. Startup barrier: worker pings, home is ready.
    hqp.postRecv(msg_home, home_msg_mr.lkey(), 64, 9001);
    worker.memory().write(msg_worker, std::vector<std::uint8_t>(64, 0xAB));
    wqp.postSend(msg_worker, worker_msg_mr.lkey(), 64, 9002);
    if (!ran([&] { return worker_cq.totalCompletions() >= 1; }))
        return result;

    // 4. First-touch the directory pages: synchronous WRITEs (MPI_Put +
    //    flush). Synchronous means one outstanding op at a time, so these
    //    fault abundantly under ODP but cannot dam each other.
    const std::uint64_t done_before = worker_cq.totalSuccess();
    for (std::size_t p = 0; p < firstTouchPages; ++p) {
        const std::uint64_t dst = global + p * mem::pageSize;
        wqp.postWrite(mirror, worker_mr.lkey(), dst, home_mr.rkey(),
                      /*length=*/64, /*wr_id=*/1000 + p);
        if (!ran([&] {
                return worker_cq.totalSuccess() >= done_before + p + 1;
            }))
            return result;
        cluster.advance(cluster.rng().uniformTime(Time::us(20),
                                                  Time::us(120)));
    }

    // 5. Global lock: READ the (cold) lock word from the home node, then
    //    SEND the queue-lock message after a compute gap -- pipelined, as
    //    the paper observed with ibdump.
    const std::uint64_t lock_addr =
        global + config_.memoryBytes - mem::pageSize;
    const std::uint64_t before_lock = worker_cq.totalSuccess();
    hqp.postRecv(msg_home, home_msg_mr.lkey(), 64, 9003);
    wqp.postRead(mirror + mem::pageSize, worker_mr.lkey(), lock_addr,
                 home_mr.rkey(), /*length=*/8, /*wr_id=*/2000);
    cluster.advance(cluster.rng().uniformTime(system_.lockGapMin,
                                              system_.lockGapMax));
    wqp.postSend(msg_worker, worker_msg_mr.lkey(), 64, /*wr_id=*/2001);

    if (!ran([&] { return worker_cq.totalSuccess() >= before_lock + 2; }))
        return result;

    // 6. Finalize barrier.
    wqp.postRead(mirror, worker_mr.lkey(), global, home_mr.rkey(), 8,
                 3000);
    if (!ran([&] { return worker_cq.totalSuccess() >= before_lock + 3; }))
        return result;

    result.completed = true;
    result.executionTime = cluster.now() - start;
    result.timeouts = wqp.stats().timeouts;
    result.rnrNaks = wqp.stats().rnrNaksReceived;
    result.faultsResolved = home.driver().stats().faultsResolved +
                            worker.driver().stats().faultsResolved;
    return result;
}

} // namespace apps
} // namespace ibsim
