/**
 * @file
 * TrialRunner — thread-pooled, deterministic execution of trial grids.
 *
 * Every (cell, trial) pair of a Sweep is an independent simulation: each
 * trial builds its own Cluster and EventQueue, so trials are
 * embarrassingly parallel. TrialRunner fans them out over a std::thread
 * pool (size from --jobs / IBSIM_JOBS / hardware concurrency) while
 * guaranteeing that results are **bit-identical to a sequential run**:
 *
 *   - each trial's seed comes from a SeedStream keyed on (cell, trial),
 *     never from which thread or in which order it ran;
 *   - per-trial metric values are stored into pre-assigned slots, then
 *     accumulated on the calling thread in (cell, trial) order.
 *
 * The runner also rejects seed collisions outright: if any two trials of
 * a sweep would share a seed (impossible with SeedStream, but cheap to
 * prove per run), it throws instead of producing correlated statistics.
 */

#ifndef IBSIM_EXP_TRIAL_RUNNER_HH
#define IBSIM_EXP_TRIAL_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/seed_stream.hh"
#include "exp/sweep.hh"
#include "simcore/stats.hh"

namespace ibsim {
namespace exp {

/**
 * Ordered name -> value metric samples returned by one trial.
 */
class Metrics
{
  public:
    /** Set (or overwrite) one metric sample. */
    Metrics& set(const std::string& name, double value);

    /** Convenience for booleans rendered as 0/1 (probability metrics). */
    Metrics& set(const std::string& name, bool value)
    {
        return set(name, value ? 1.0 : 0.0);
    }

    double get(const std::string& name) const;
    bool has(const std::string& name) const;

    const std::vector<std::pair<std::string, double>>&
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, double>> items_;
};

/**
 * Aggregated statistics of one sweep cell. Self-contained: axis values
 * are copied out of the Sweep, so results can outlive it.
 */
class CellStats
{
  public:
    CellStats(std::size_t index,
              std::vector<std::pair<std::string, AxisValue>> axes);

    std::size_t index() const { return index_; }

    /** @{ Axis accessors, mirroring Cell. */
    double num(const std::string& axis) const;
    const std::string& str(const std::string& axis) const;
    /** @} */

    const std::vector<std::pair<std::string, AxisValue>>&
    axes() const
    {
        return axes_;
    }

    /** Accumulated samples of one metric (throws on unknown name). */
    const Accumulator& metric(const std::string& name) const;
    bool hasMetric(const std::string& name) const;

    /** Metric accumulators in first-trial insertion order. */
    const std::vector<std::pair<std::string, Accumulator>>&
    metrics() const
    {
        return metrics_;
    }

    /** Used by TrialRunner during aggregation. */
    void accumulate(const Metrics& trial);

  private:
    std::size_t index_;
    std::vector<std::pair<std::string, AxisValue>> axes_;
    std::vector<std::pair<std::string, Accumulator>> metrics_;
};

/** All cells of one sweep run, in grid order. */
struct SweepResult
{
    std::vector<std::string> axisNames;
    std::size_t trialsPerCell = 0;
    std::vector<CellStats> cells;

    /** The cell whose axis values match the given (name, text) pairs. */
    const CellStats& cell(std::size_t index) const { return cells[index]; }
};

/** The per-trial body: pure function of the cell parameters and seed. */
using TrialFn = std::function<Metrics(const Cell&, std::uint64_t seed)>;

class TrialRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 resolves IBSIM_JOBS, then hw concurrency. */
        unsigned jobs = 0;

        /** Seed-stream base; use {benchName, userSeed} in benches. */
        SeedStream seeds{0};

        /** Prove per-run that no two trials share a seed. */
        bool checkSeedDisjoint = true;
    };

    TrialRunner() : TrialRunner(Options{}) {}
    explicit TrialRunner(Options options);

    /**
     * Run @p trials_per_cell trials of @p fn for every cell of @p sweep.
     * @p fn must be a pure function of (cell, seed) and must not touch
     * shared mutable state; it runs concurrently on worker threads.
     */
    SweepResult run(const Sweep& sweep, std::size_t trials_per_cell,
                    const TrialFn& fn) const;

    /** The resolved worker count this runner will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Resolve a requested job count: 0 falls back to the IBSIM_JOBS
     * environment variable (1..4096; anything else exits 2 through
     * parseNumber()), then to std::thread::hardware_concurrency().
     */
    static unsigned resolveJobs(unsigned requested);

  private:
    Options options_;
    unsigned jobs_;
};

} // namespace exp
} // namespace ibsim

#endif // IBSIM_EXP_TRIAL_RUNNER_HH
