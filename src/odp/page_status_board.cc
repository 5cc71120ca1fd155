#include "odp/page_status_board.hh"

#include <algorithm>

#include "simcore/log.hh"

namespace ibsim {
namespace odp {

namespace {

log::Component traceFlood("flood");

/**
 * Service time grows quadratically with the *active waiter* population
 * on the whole RNIC (stale or still faulting): the factor is
 * 1 + (loadFactor * waiters)^2, capped at maxServiceFactor. The driver
 * shares its capacity with the flood's interrupt load, which is what
 * stretches Fig. 11b into hundreds of milliseconds and Fig. 9a into
 * seconds while keeping Fig. 11a's single-page drain in the milliseconds.
 */
constexpr double loadFactor = 1.0 / 20.0;

/** Upper bound on the load multiplier (bounds one refresh's cost). */
constexpr double maxServiceFactor = 100.0;

} // namespace

PageStatusBoard::PageStatusBoard(EventQueue& events, Rng& rng,
                                 FloodQuirkConfig config)
    : events_(events), rng_(rng), config_(config)
{
}

void
PageStatusBoard::registerWaiter(const TranslationTable* table,
                                std::uint64_t page_idx, std::uint32_t qpn)
{
    const Key key{table, page_idx, qpn};
    auto [it, inserted] = waiters_.try_emplace(key);
    if (inserted) {
        it->second.since = events_.now();
        ++stats_.waitersRegistered;
    }
}

void
PageStatusBoard::unregisterWaiter(const TranslationTable* table,
                                  std::uint64_t page_idx, std::uint32_t qpn)
{
    const Key key{table, page_idx, qpn};
    auto it = waiters_.find(key);
    if (it == waiters_.end())
        return;
    if (it->second.stale)
        purgeFromSlowQueue(key);
    waiters_.erase(it);
}

void
PageStatusBoard::purgeFromSlowQueue(const Key& key)
{
    slowQueue_.erase(std::remove(slowQueue_.begin(), slowQueue_.end(), key),
                     slowQueue_.end());
}

bool
PageStatusBoard::fresh(const TranslationTable* table, std::uint64_t page_idx,
                       std::uint32_t qpn) const
{
    return waiters_.find({table, page_idx, qpn}) == waiters_.end();
}

void
PageStatusBoard::onPageMapped(const TranslationTable& table,
                              std::uint64_t page_idx)
{
    // Collect the waiters of this page. Keys sort by (table, page, qpn) so
    // an equal_range-style scan over the map works.
    std::vector<Key> page_waiters;
    const Key lo{&table, page_idx, 0};
    for (auto it = waiters_.lower_bound(lo); it != waiters_.end(); ++it) {
        const auto& [tab, page, qpn] = it->first;
        if (tab != &table || page != page_idx)
            break;
        page_waiters.push_back(it->first);
    }

    const bool fail_updates =
        config_.enabled && page_waiters.size() > config_.updateFanout;
    const Time stale_cutoff = events_.now() - config_.staleThreshold;

    for (const Key& key : page_waiters) {
        Waiter& w = waiters_.at(key);
        if (fail_updates && w.since < stale_cutoff) {
            // Update failure: this QP was already mid-retransmission and
            // missed the broadcast; only the slow path refreshes it.
            if (!w.stale) {
                ++stats_.updateFailures;
                w.stale = true;
                slowQueue_.push_back(key);
            }
            IBSIM_TRACE(traceFlood, events_.now(),
                        "update failure qpn=" +
                            std::to_string(std::get<2>(key)) +
                            " page=" + std::to_string(page_idx));
        } else {
            ++stats_.promptUpdates;
            if (w.stale)
                purgeFromSlowQueue(key);
            waiters_.erase(key);
        }
    }

    if (!slowQueue_.empty())
        scheduleService(config_.slowUpdateBase);
}

void
PageStatusBoard::scheduleService(Time lead)
{
    if (events_.pending(serviceTimer_))
        return;
    serviceTimer_ = events_.scheduleAfter(rng_.jitter(lead, 0.10),
                                          [this] { serviceFired(); });
}

void
PageStatusBoard::serviceFired()
{
    if (slowQueue_.empty())
        return;

    // LIFO service: the most recent failures refresh first, so the
    // earliest operations finish last (paper Fig. 11a: the *first* ~30
    // operations stayed unaware the longest). Dead keys (waiter already
    // flushed or destroyed) are skipped without burning a service slot.
    while (!slowQueue_.empty()) {
        const Key key = slowQueue_.back();
        slowQueue_.pop_back();
        auto it = waiters_.find(key);
        if (it == waiters_.end() || !it->second.stale)
            continue;
        waiters_.erase(it);
        ++stats_.slowRefreshes;
        IBSIM_TRACE(traceFlood, events_.now(),
                    "slow refresh landed qpn=" +
                        std::to_string(std::get<2>(key)));
        break;
    }

    if (!slowQueue_.empty()) {
        // Service slows down quadratically with the whole active-waiter
        // population (stale or still faulting): the driver shares its
        // capacity with the flood's interrupt load.
        const double scaled =
            loadFactor * static_cast<double>(waiters_.size());
        const double load = std::min(maxServiceFactor, 1.0 + scaled * scaled);
        scheduleService(config_.slowServiceBase * load);
    }
}

} // namespace odp
} // namespace ibsim
