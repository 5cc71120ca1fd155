#include "pitfall/workarounds.hh"

namespace ibsim {
namespace pitfall {

verbs::QpConfig
withMinimalRnrDelay(verbs::QpConfig config)
{
    // The smallest non-zero IBA RNR timer encoding is 0.01 ms.
    config.minRnrNakDelay = Time::ms(0.01);
    return config;
}

DummyCommTimer::DummyCommTimer(Cluster& cluster, verbs::QueuePair qp,
                               std::uint64_t laddr, std::uint32_t lkey,
                               std::uint64_t raddr, std::uint32_t rkey,
                               Time period)
    : cluster_(cluster), qp_(qp), laddr_(laddr), lkey_(lkey),
      raddr_(raddr), rkey_(rkey), period_(period)
{
}

DummyCommTimer::~DummyCommTimer()
{
    stop();
}

void
DummyCommTimer::start()
{
    if (running_)
        return;
    running_ = true;
    timer_ = cluster_.events().scheduleAfter(period_, [this] { fire(); });
}

void
DummyCommTimer::stop()
{
    if (!running_)
        return;
    cluster_.events().cancel(timer_);
    running_ = false;
}

void
DummyCommTimer::fire()
{
    if (!running_)
        return;
    if (qp_.context().state != rnic::QpState::Error) {
        qp_.postRead(laddr_, lkey_, raddr_, rkey_, /*length=*/8,
                     dummyWrIdBase + posted_);
        ++posted_;
    }
    timer_ = cluster_.events().scheduleAfter(period_, [this] { fire(); });
}

FloodRescue::FloodRescue(Cluster& cluster, Node& client, Node& server,
                         verbs::CompletionQueue& cq,
                         verbs::QpConfig config, std::size_t pool_size)
{
    pool_.reserve(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
        auto [cqp, sqp] =
            cluster.connectRc(client, cq, server, cq, config);
        pool_.push_back(cqp);
    }
}

verbs::QueuePair&
FloodRescue::rescue(std::uint64_t laddr, std::uint32_t lkey,
                    std::uint64_t raddr, std::uint32_t rkey,
                    std::uint32_t length, std::uint64_t wr_id)
{
    verbs::QueuePair& qp = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    qp.postRead(laddr, lkey, raddr, rkey, length, wr_id);
    ++rescues_;
    return qp;
}

} // namespace pitfall
} // namespace ibsim
