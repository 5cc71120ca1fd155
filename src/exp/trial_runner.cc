#include "exp/trial_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "exp/bench_main.hh"

namespace ibsim {
namespace exp {

Metrics&
Metrics::set(const std::string& name, double value)
{
    for (auto& item : items_) {
        if (item.first == name) {
            item.second = value;
            return *this;
        }
    }
    items_.emplace_back(name, value);
    return *this;
}

double
Metrics::get(const std::string& name) const
{
    for (const auto& item : items_) {
        if (item.first == name)
            return item.second;
    }
    throw std::logic_error("no metric named '" + name + "'");
}

CellStats::CellStats(std::size_t index,
                     std::vector<std::pair<std::string, AxisValue>> axes)
    : index_(index), axes_(std::move(axes))
{}

double
CellStats::num(const std::string& axis) const
{
    for (const auto& a : axes_) {
        if (a.first == axis) {
            if (!a.second.numeric)
                throw std::logic_error("sweep axis '" + axis +
                                       "' is not numeric");
            return a.second.num;
        }
    }
    throw std::logic_error("no sweep axis named '" + axis + "'");
}

const std::string&
CellStats::str(const std::string& axis) const
{
    for (const auto& a : axes_) {
        if (a.first == axis)
            return a.second.text;
    }
    throw std::logic_error("no sweep axis named '" + axis + "'");
}

const Accumulator&
CellStats::metric(const std::string& name) const
{
    for (const auto& m : metrics_) {
        if (m.first == name)
            return m.second;
    }
    throw std::logic_error("no metric named '" + name + "'");
}

bool
CellStats::hasMetric(const std::string& name) const
{
    for (const auto& m : metrics_) {
        if (m.first == name)
            return true;
    }
    return false;
}

void
CellStats::accumulate(const Metrics& trial)
{
    for (const auto& [name, value] : trial.items()) {
        bool found = false;
        for (auto& m : metrics_) {
            if (m.first == name) {
                m.second.add(value);
                found = true;
                break;
            }
        }
        if (!found) {
            metrics_.emplace_back(name, Accumulator{});
            metrics_.back().second.add(value);
        }
    }
}

TrialRunner::TrialRunner(Options options)
    : options_(std::move(options)), jobs_(resolveJobs(options_.jobs))
{}

unsigned
TrialRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    const char* env = std::getenv("IBSIM_JOBS");
    if (env != nullptr && *env != '\0')
        return parseNumber<unsigned>("IBSIM_JOBS", env, 1, 4096);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepResult
TrialRunner::run(const Sweep& sweep, std::size_t trials_per_cell,
                 const TrialFn& fn) const
{
    if (trials_per_cell == 0)
        throw std::logic_error("TrialRunner: trials_per_cell must be >= 1");

    const std::vector<Cell> cells = sweep.cells();
    const std::size_t total = cells.size() * trials_per_cell;

    // Pre-assign every trial its seed; the schedule is fixed before any
    // worker starts, so thread count and completion order cannot leak in.
    std::vector<std::uint64_t> seeds(total);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::size_t t = 0; t < trials_per_cell; ++t)
            seeds[c * trials_per_cell + t] =
                options_.seeds.trialSeed(c, t);
    }

    if (options_.checkSeedDisjoint) {
        std::unordered_set<std::uint64_t> unique(seeds.begin(),
                                                 seeds.end());
        if (unique.size() != seeds.size())
            throw std::logic_error(
                "TrialRunner: seed collision inside one sweep -- two "
                "trials would sample identical noise");
    }

    // Workers write into pre-assigned slots; nothing is aggregated yet.
    std::vector<Metrics> slots(total);
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, total));

    auto work = [&](std::size_t i) {
        const std::size_t c = i / trials_per_cell;
        slots[i] = fn(cells[c], seeds[i]);
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < total; ++i)
            work(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex error_mutex;

        auto worker = [&] {
            for (;;) {
                if (failed.load(std::memory_order_relaxed))
                    return;
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= total)
                    return;
                try {
                    work(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto& th : pool)
            th.join();
        if (error)
            std::rethrow_exception(error);
    }

    // Sequential aggregation in (cell, trial) order: bit-identical to a
    // --jobs 1 run no matter how the slots were filled.
    SweepResult result;
    for (const auto& a : sweep.axes())
        result.axisNames.push_back(a.name);
    result.trialsPerCell = trials_per_cell;
    result.cells.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        std::vector<std::pair<std::string, AxisValue>> axes;
        axes.reserve(sweep.axes().size());
        for (const auto& a : sweep.axes())
            axes.emplace_back(
                a.name, a.values[cells[c].valueIndex(a.name)]);
        CellStats stats(c, std::move(axes));
        for (std::size_t t = 0; t < trials_per_cell; ++t)
            stats.accumulate(slots[c * trials_per_cell + t]);
        result.cells.push_back(std::move(stats));
    }
    return result;
}

} // namespace exp
} // namespace ibsim
