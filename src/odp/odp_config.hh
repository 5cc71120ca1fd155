/**
 * @file
 * Tunable parameters of the ODP model.
 *
 * The values mirror what the paper measured on ConnectX-4 (KNL system)
 * unless stated otherwise; DeviceProfile embeds one OdpConfig per modeled
 * RNIC. See DESIGN.md section 4 for the evidence behind each default.
 */

#ifndef IBSIM_ODP_ODP_CONFIG_HH
#define IBSIM_ODP_ODP_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "simcore/time.hh"

namespace ibsim {
namespace odp {

/**
 * Driver-side speculative prefetch policy (DESIGN.md section 14): which
 * pages the driver pre-resolves alongside a demand fault.
 */
enum class PrefetchPolicy : std::uint8_t
{
    /** Demand faulting only (every device the paper measured). */
    None,
    /** Every fault also pre-resolves the next prefetchWidth pages. */
    FixedWidth,
    /**
     * Pre-resolve only when the fault stream looks sequential (two
     * consecutive faulting pages), then fetch prefetchWidth ahead.
     */
    SequentialDetect,
};

/**
 * Driver / RNIC timing for page fault handling.
 *
 * Every ODP page moves through the per-page state machine
 * (NotPresent/Faulting/Present/Invalidating/FaultingInvalidated,
 * DESIGN.md section 14) with MMU-notifier two-phase invalidation:
 * invalidate_start flushes the RNIC translation immediately and opens a
 * quiesce window, invalidate_end releases the host frame after
 * invalidateLatency, and faults/prefetches that collide with a window
 * serialize behind it instead of racing.
 */
struct FaultTiming
{
    /**
     * Huge-page mapping: one fault installs the whole aligned
     * hugePageSpan block (2 MiB at the default 512 x 4 KiB), skipping
     * pages another fault or notifier window owns. Invalidation then
     * splits the block: reclaiming any page unmaps every page of its
     * aligned block (THP-style).
     */
    bool hugePages = false;

    /** Pages per huge mapping (512 x 4 KiB = 2 MiB). */
    std::uint64_t hugePageSpan = 512;

    /** Driver-side speculative prefetch. */
    PrefetchPolicy prefetchPolicy = PrefetchPolicy::None;

    /** Pages fetched ahead per policy trigger. */
    std::uint64_t prefetchWidth = 8;

    /**
     * Fault resolution latency bounds; actual latency is drawn uniformly.
     * The paper reports 250-1000 us as the common-case band (Fig. 9a).
     */
    Time faultLatencyMin = Time::us(250);
    Time faultLatencyMax = Time::us(1000);

    /**
     * Fault resolution slows under flood congestion: the effective
     * latency is scaled by (1 + faultLoadFactor * stale waiters). The
     * driver and RNIC fault machinery are shared resources; Fig. 11a's
     * fault resolved only at ~1 ms with 128 QPs waiting.
     */
    double faultLoadFactor = 0.1;

    /** Cost of invalidating one page (flush + kernel round trip). */
    Time invalidateLatency = Time::us(30);

    /** Cost of a prefetch advise per page (no interrupt needed). */
    Time prefetchLatencyPerPage = Time::us(15);
};

/**
 * The page-status update-failure quirk behind packet flood
 * (paper Sec. VI, DESIGN.md modeling decision #5).
 *
 * When a fault resolves, the RNIC promptly refreshes the page-status view
 * of the waiting QPs -- unless there are more than updateFanout waiters,
 * in which case the QPs that were already mid-retransmission (registered
 * more than staleThreshold before the resolution, i.e. at least one blind
 * retransmission deep) miss the update. Those QPs recover only through a
 * slow refresh path: a rate-limited queue whose per-item service time
 * grows with the stale population, so heavy floods drain slowly -- the
 * load dependence the paper observes between Fig. 11a (milliseconds) and
 * Fig. 11b / Fig. 9a (seconds).
 */
struct FloodQuirkConfig
{
    /** Master switch; the quirk exists on every device the paper tested. */
    bool enabled = true;

    /** Prompt-update capacity per fault resolution (the >10 QP knee). */
    std::size_t updateFanout = 10;

    /**
     * Waiters registered more than this long before the resolution have
     * blindly retransmitted at least once and miss the prompt update.
     * Matches the client-side retransmission interval.
     */
    Time staleThreshold = Time::us(500);

    /** Dead time before the slow refresh path serves its first waiter. */
    Time slowUpdateBase = Time::ms(2.5);

    /** Base service time per slow refresh. */
    Time slowServiceBase = Time::us(100);

    /**
     * Service time grows quadratically with the *active waiter*
     * population on the whole RNIC (stale or still faulting): the factor
     * is 1 + (loadFactor * waiters)^2, capped at maxServiceFactor. The
     * driver shares its capacity with the flood's interrupt load, which
     * is what stretches Fig. 11b into hundreds of milliseconds and
     * Fig. 9a into seconds while keeping Fig. 11a's single-page drain in
     * the milliseconds.
     */
    double loadFactor = 1.0 / 20.0;

    /** Upper bound on the load multiplier (bounds one refresh's cost). */
    double maxServiceFactor = 100.0;
};

} // namespace odp
} // namespace ibsim

#endif // IBSIM_ODP_ODP_CONFIG_HH
