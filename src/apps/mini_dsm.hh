/**
 * @file
 * MiniDsm — an ArgoDSM-like distributed shared memory initialization model.
 *
 * ArgoDSM (paper Sec. VII-A) is a home-node directory DSM whose
 * argo::init() performs abundant first touches and, crucially, a global
 * lock acquisition in which one node READs a remote lock word and then
 * SENDs a message shortly after — the exact READ-followed-by-operation
 * pattern that packet damming strikes. MiniDsm reproduces that
 * initialization protocol on the simulator's verbs API:
 *
 *   1. host-side setup (the dominant, system-dependent cost);
 *   2. registration of the global memory region (pinned or ODP);
 *   3. a SEND/RECV barrier;
 *   4. synchronous first-touch WRITEs of the directory pages;
 *   5. the global lock: a READ of the (cold) lock word followed, after a
 *      jittered compute gap, by a pipelined SEND release;
 *   6. a finalize barrier.
 *
 * With ODP enabled, step 5's SEND can land inside the READ's fault pending
 * window and get dammed, adding a full transport timeout — the bimodal
 * histogram of paper Fig. 12.
 */

#ifndef IBSIM_APPS_MINI_DSM_HH
#define IBSIM_APPS_MINI_DSM_HH

#include <cstdint>
#include <string>

#include "rnic/device_profile.hh"
#include "simcore/time.hh"
#include "ucxlite/ucx_lite.hh"
#include "verbs/types.hh"

namespace ibsim {
namespace apps {

/** Host/system parameters of one testbed (paper Table II). */
struct DsmSystemParams
{
    std::string name;
    rnic::DeviceProfile profile;

    /** Host-side setup cost of argo::init (allocator, threads, MPI). */
    Time hostSetup = Time::sec(2.2);

    /** Pinning cost per page for conventional registration. */
    Time pinPerPage = Time::us(2);

    /** Compute gap between the lock READ and the release SEND. */
    Time lockGapMin = Time::ms(0.3);
    Time lockGapMax = Time::ms(7.0);

    /** The paper's two histogram systems. */
    static DsmSystemParams knl();
    static DsmSystemParams reedbushH();
};

/** Workload parameters. */
struct DsmConfig
{
    /** Memory passed to argo::init (paper: 10 MB). */
    std::uint64_t memoryBytes = 10ull << 20;

    /** Enable ODP registration (UCX environment switch). */
    bool odp = false;

    /** QP attributes; UCX defaults: C_ack 18, min RNR NAK 0.96 ms. */
    verbs::QpConfig qpConfig = ucxlite::UcxConfig::ucxDefaults();
};

/** Measurements of one init+finalize run. */
struct DsmResult
{
    bool completed = false;
    Time executionTime;
    std::uint64_t timeouts = 0;
    std::uint64_t rnrNaks = 0;
    std::uint64_t faultsResolved = 0;
};

/**
 * One simulated argo::init(); argo::finalize() benchmark run.
 */
class MiniDsm
{
  public:
    MiniDsm(DsmSystemParams system, DsmConfig config)
        : system_(std::move(system)), config_(config)
    {}

    /** Run one trial with the given seed. */
    DsmResult run(std::uint64_t seed) const;

  private:
    DsmSystemParams system_;
    DsmConfig config_;
};

} // namespace apps
} // namespace ibsim

#endif // IBSIM_APPS_MINI_DSM_HH
