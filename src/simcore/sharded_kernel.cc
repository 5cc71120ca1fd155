#include "simcore/sharded_kernel.hh"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace ibsim {

namespace {

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

ShardedKernel::ShardedKernel(Time lookahead, unsigned jobs)
    : lookahead_(lookahead), jobs_(std::max(1u, jobs))
{
    assert(lookahead_ > Time() && "lookahead must be positive");
}

ShardedKernel::~ShardedKernel()
{
    if (workers_.size() > 1) {
        exit_.store(true, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        for (auto& w : workers_) {
            if (w.thread.joinable())
                w.thread.join();
        }
    }
}

std::size_t
ShardedKernel::addIsland()
{
    assert(!started_ && "islands are fixed once the kernel has run");
    islands_.emplace_back();
    islands_.back().queue = std::make_unique<EventQueue>();
    logicalOf_.push_back(islands_.size() - 1);
    return islands_.size() - 1;
}

void
ShardedKernel::growEdges()
{
    // Islands and edges are declared interleaved (the cluster layer adds
    // a node pair, connects its QPs, adds the next pair, ...), so the
    // matrix must grow *preserving* everything declared so far.
    const std::size_t n = islands_.size();
    if (edges_.size() == n)
        return;
    for (auto& row : edges_)
        row.resize(n, 0);
    edges_.resize(n, std::vector<std::uint8_t>(n, 0));
}

void
ShardedKernel::declareEdge(std::size_t src, std::size_t dst)
{
    if (src == dst)
        return;  // same-island influence is inline, no clock involved
    anyEdgeDeclared_ = true;
    growEdges();
    assert(src < islands_.size() && dst < islands_.size());
    if (edges_[src][dst])
        return;
    edges_[src][dst] = 1;
    if (started_)
        rebuildNeighbors();  // only legal while quiesced (between runs)
}

void
ShardedKernel::declareDense(std::size_t island)
{
    // A flag, not materialized edges: a dense island must stay connected
    // to islands added *after* this call too (a UD QP can name any
    // destination, including a node created later).
    assert(island < islands_.size());
    anyEdgeDeclared_ = true;
    if (dense_.size() <= island)
        dense_.resize(island + 1, 0);
    if (dense_[island])
        return;
    dense_[island] = 1;
    if (started_)
        rebuildNeighbors();  // only legal while quiesced (between runs)
}

bool
ShardedKernel::isDense(std::size_t island) const
{
    return island < dense_.size() && dense_[island] != 0;
}

bool
ShardedKernel::hasEdge(std::size_t src, std::size_t dst) const
{
    if (src == dst)
        return true;
    if (!anyEdgeDeclared_)
        return true;  // undeclared graph = conservative dense default
    if (isDense(src) || isDense(dst))
        return true;
    if (src >= edges_.size() || dst >= edges_.size())
        return false;  // islands added after the last declared edge
    return edges_[src][dst] != 0;
}

void
ShardedKernel::setLogicalIsland(std::size_t island, std::size_t logical)
{
    assert(island < logicalOf_.size());
    logicalOf_[island] = logical;
}

std::size_t
ShardedKernel::logicalIslandCount() const
{
    std::size_t count = 0;
    for (std::size_t logical : logicalOf_)
        count = std::max(count, logical + 1);
    return count;
}

void
ShardedKernel::setBarrierAgent(BarrierAgent* agent)
{
    assert((agent == nullptr || agent_ == nullptr) &&
           "a kernel has one barrier agent");
    agent_ = agent;
}

void
ShardedKernel::rebuildNeighbors()
{
    const std::size_t n = islands_.size();
    for (std::size_t i = 0; i < n; ++i) {
        Island& is = islands_[i];
        is.inNbr.clear();
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i && hasEdge(j, i))
                is.inNbr.push_back(static_cast<std::uint32_t>(j));
        }
    }
}

void
ShardedKernel::startWorkers()
{
    if (started_)
        return;
    started_ = true;
    jobs_ = static_cast<unsigned>(std::min<std::size_t>(
        jobs_, std::max<std::size_t>(1, islands_.size())));
    rebuildNeighbors();
    workers_ = std::vector<Worker>(jobs_);
    for (unsigned w = 1; w < jobs_; ++w)
        workers_[w].thread = std::thread([this, w] { workerLoop(w); });
}

Time
ShardedKernel::gridEnd(Time t) const
{
    const std::int64_t l = lookahead_.toNs();
    return Time::fromNs((t.toNs() / l + 1) * l);
}

Time
ShardedKernel::safeHorizon(const Island& is) const
{
    if (is.inNbr.empty())
        return Time::max();
    std::int64_t m = Time::max().toNs();
    for (std::uint32_t nbr : is.inNbr) {
        m = std::min(m,
                     islands_[nbr].done.load(std::memory_order_acquire));
    }
    if (m >= Time::max().toNs() - lookahead_.toNs())
        return Time::max();
    return Time::fromNs(m + lookahead_.toNs());
}

Time
ShardedKernel::inboundEarliest(std::size_t i) const
{
    return agent_ != nullptr ? agent_->inboundEarliest(i) : Time::max();
}

ShardedKernel::Step
ShardedKernel::stepIsland(std::size_t i, Time round_limit)
{
    Island& is = islands_[i];
    EventQueue& q = *is.queue;
    bool advanced = false;
    for (;;) {
        Time done = Time::fromNs(is.done.load(std::memory_order_relaxed));

        if (done >= round_limit) {
            // Degenerate round (limit == the synchronized clock): the
            // island starts already at the round limit.
            is.roundDone = true;
            return Step::RoundDone;
        }

        // Read the in-neighbor clocks BEFORE probing channels: a clock
        // published at c guarantees (release/acquire) that every item
        // with effect <= c + lookahead is visible, so probing after the
        // clock read can never miss work the horizon permits consuming.
        const Time safe = safeHorizon(is);
        const Time next =
            std::min(q.nextEventTime(), inboundEarliest(i));

        if (next > round_limit) {
            // Nothing to execute this round: publish clock up to the
            // horizon (the null-message leapfrog that unblocks
            // downstream islands) and finish the round when possible.
            const Time target = std::min(round_limit, safe);
            if (target <= done) {
                is.maxLagNs = std::max(
                    is.maxLagNs, static_cast<std::uint64_t>(
                                     (round_limit - safe).toNs()));
                return advanced ? Step::Advanced : Step::Blocked;
            }
            is.done.store(target.toNs(), std::memory_order_release);
            advanced = true;
            if (target == round_limit) {
                is.roundDone = true;
                return Step::RoundDone;
            }
            continue;
        }

        // Execute the grid window holding the earliest pending work.
        const Time wEnd = gridEnd(next);
        const Time runLimit = std::max(
            std::min(wEnd - Time::ns(1), round_limit), done);
        if (runLimit > safe) {
            // Window not yet safe; creep the clock toward it so the
            // upstream islands' own horizons keep moving too.
            const Time target = std::min(safe, next - Time::ns(1));
            if (target <= done) {
                is.maxLagNs = std::max(
                    is.maxLagNs,
                    static_cast<std::uint64_t>((runLimit - safe).toNs()));
                return advanced ? Step::Advanced : Step::Blocked;
            }
            is.done.store(target.toNs(), std::memory_order_release);
            advanced = true;
            continue;
        }

        if (agent_ != nullptr)
            is.parcels += agent_->flushInbound(i, runLimit);
        q.run(runLimit);
        q.syncClock(runLimit);
        is.done.store(runLimit.toNs(), std::memory_order_release);
        ++is.windows;
        advanced = true;
        if (runLimit == round_limit) {
            is.roundDone = true;
            return Step::RoundDone;
        }
    }
}

void
ShardedKernel::workerRound(unsigned worker)
{
    using clock = std::chrono::steady_clock;
    const auto roundStart = clock::now();
    std::uint64_t busy = 0;
    const std::size_t n = islands_.size();
    const std::size_t first = worker * n / jobs_;
    const std::size_t last = (worker + 1) * n / jobs_;

    std::size_t remaining = last - first;
    while (remaining > 0) {
        bool progress = false;
        for (std::size_t i = first; i < last; ++i) {
            if (islands_[i].roundDone)
                continue;
            const auto t0 = clock::now();
            const Step step = stepIsland(i, roundLimit_);
            if (step == Step::Blocked)
                continue;
            busy += elapsedNs(t0, clock::now());
            progress = true;
            if (step == Step::RoundDone)
                --remaining;
        }
        // A pass that advanced nothing waits on another worker's clocks.
        if (!progress)
            std::this_thread::yield();
    }

    Worker& me = workers_[worker];
    me.busyNs += busy;
    me.totalNs += elapsedNs(roundStart, clock::now());
}

void
ShardedKernel::workerLoop(unsigned worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        // Spin briefly (rounds are close together when busy), then
        // yield so oversubscribed machines still make progress.
        int spins = 0;
        while (epoch_.load(std::memory_order_acquire) == seen) {
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
        ++seen;
        if (exit_.load(std::memory_order_relaxed))
            return;
        workerRound(worker);
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
ShardedKernel::dispatchRound(Time init_done, Time round_limit)
{
    roundLimit_ = round_limit;
    for (Island& is : islands_) {
        is.done.store(init_done.toNs(), std::memory_order_relaxed);
        is.roundDone = false;
    }
    if (jobs_ > 1) {
        outstanding_.store(jobs_ - 1, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
    }
    workerRound(0);  // the coordinator is worker 0
    int spins = 0;
    while (outstanding_.load(std::memory_order_acquire) != 0) {
        if (++spins > 256) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

Time
ShardedKernel::earliestPending() const
{
    Time earliest = Time::max();
    for (const Island& is : islands_)
        earliest = std::min(earliest, is.queue->nextEventTime());
    for (std::size_t i = 0; i < islands_.size(); ++i)
        earliest = std::min(earliest, inboundEarliest(i));
    return earliest;
}

void
ShardedKernel::syncClocks(Time t)
{
    for (Island& is : islands_)
        is.queue->syncClock(t);
    if (t > now_)
        now_ = t;
}

bool
ShardedKernel::runCore(Time limit, const std::function<bool()>* pred,
                       bool* pred_hit)
{
    startWorkers();
    // Adaptive rounds apply only to predicate-free runs: for runUntil()
    // the round boundary *is* the stop granularity, so it keeps the base
    // length.
    const bool adaptive = pred == nullptr;
    unsigned roundWindows = kBaseWindows;
    for (;;) {
        // Round boundaries are the quiesce points: every worker is
        // parked, all clocks agree, channels hold only future work.
        if (pred != nullptr && (*pred)()) {
            *pred_hit = true;
            return false;
        }
        const Time earliest = earliestPending();
        if (earliest == Time::max())
            return true;  // drained
        if (earliest > limit) {
            syncClocks(limit);
            return false;
        }

        // The round covers roundWindows grid windows starting at the
        // slot holding the earliest pending work — idle gaps are jumped
        // here, globally and deterministically, instead of leapfrogged
        // window by window.
        const std::int64_t l = lookahead_.toNs();
        const Time base = std::max(now_, earliest);
        const Time roundStart = Time::fromNs(base.toNs() / l * l);
        const Time roundEnd = Time::fromNs(
            roundStart.toNs() +
            l * static_cast<std::int64_t>(roundWindows));
        const Time roundLimit = std::min(roundEnd - Time::ns(1), limit);
        Time initDone = std::max(roundStart - Time::ns(1), now_);
        if (initDone >= roundLimit) {
            // Degenerate round: the limit equals the synchronized clock
            // (e.g. the first run(Time(0)) with an event at t = 0).
            // Starting the clocks *below* the limit makes the window
            // containing it execute — mirroring EventQueue::run()'s
            // events-at-limit-run semantics — instead of every island
            // reporting roundDone untouched and the loop spinning.
            initDone = roundLimit - Time::ns(1);
        }
        dispatchRound(initDone, roundLimit);
        ++rounds_;
        if (adaptive) {
            // Every completed busy round doubles the next one (capped):
            // long predicate-free drains quiesce O(log) instead of
            // O(length / base) times. Derived from simulation-visible
            // state only, so round placement stays jobs-invariant.
            roundsSkipped_ += roundWindows / kBaseWindows - 1;
            if (roundWindows < kMaxAdaptiveWindows)
                roundWindows = std::min(kMaxAdaptiveWindows,
                                        roundWindows * 2);
        }
        syncClocks(roundLimit);
    }
}

EventQueue*
ShardedKernel::soleQueue() const
{
    return islands_.size() == 1 ? islands_.front().queue.get() : nullptr;
}

bool
ShardedKernel::run(Time limit)
{
    if (EventQueue* q = soleQueue())
        return q->run(limit);
    return runCore(limit, nullptr, nullptr);
}

bool
ShardedKernel::runUntil(const std::function<bool()>& pred, Time limit)
{
    if (EventQueue* q = soleQueue())
        return q->runUntil(pred, limit);
    bool hit = false;
    runCore(limit, &pred, &hit);
    return hit;
}

void
ShardedKernel::advance(Time delta)
{
    if (EventQueue* q = soleQueue()) {
        q->advance(delta);
        return;
    }
    const Time target = now_ + delta;
    runCore(target, nullptr, nullptr);
    syncClocks(target);
}

std::uint64_t
ShardedKernel::executed() const
{
    std::uint64_t total = 0;
    for (const Island& is : islands_)
        total += is.queue->executed();
    return total;
}

std::size_t
ShardedKernel::pending() const
{
    std::size_t total = 0;
    for (const Island& is : islands_)
        total += is.queue->pending();
    if (agent_ != nullptr)
        for (std::size_t i = 0; i < islands_.size(); ++i)
            total += agent_->inboundPending(i);
    return total;
}

ShardedKernel::KernelStats
ShardedKernel::kernelStats() const
{
    KernelStats s;
    s.barriers = rounds_;
    s.roundsSkipped = roundsSkipped_;

    // Aggregate per *logical* island: a split node's planes fold into
    // one entry (the machine they model), and logical ids that no
    // physical island maps to are dropped rather than reported as
    // zero-work islands that would fake the imbalance spread.
    std::vector<std::uint64_t> perLogical(logicalIslandCount(), 0);
    std::vector<std::uint8_t> used(logicalIslandCount(), 0);
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        const Island& is = islands_[i];
        s.windows += is.windows;
        s.channelParcels += is.parcels;
        s.maxClockLagNs = std::max(s.maxClockLagNs, is.maxLagNs);
        perLogical[logicalOf_[i]] += is.queue->executed();
        used[logicalOf_[i]] = 1;
    }
    for (std::size_t logical = 0; logical < perLogical.size(); ++logical) {
        if (!used[logical])
            continue;
        const std::uint64_t executed = perLogical[logical];
        s.maxIslandExecuted = std::max(s.maxIslandExecuted, executed);
        s.minIslandExecuted = s.executedPerIsland.empty()
                                  ? executed
                                  : std::min(s.minIslandExecuted, executed);
        s.executedPerIsland.push_back(executed);
    }
    for (const Worker& w : workers_) {
        s.workerBusyFraction.push_back(
            w.totalNs == 0 ? 0.0
                           : static_cast<double>(w.busyNs) /
                                 static_cast<double>(w.totalNs));
    }
    return s;
}

} // namespace ibsim
