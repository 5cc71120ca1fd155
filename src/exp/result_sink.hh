/**
 * @file
 * ResultSink — one writer for every output format a bench produces.
 *
 * The benches print paper-comparable fixed-width tables on stdout; on top
 * of that the sink mirrors every row to CSV (IBSIM_CSV / --csv) and emits
 * machine-readable JSON-lines (IBSIM_JSON / --json) with the full summary
 * statistics of every metric in every sweep cell — the format BENCH_*.json
 * trajectory tracking and re-plotting scripts consume.
 *
 * Two table shapes cover the paper:
 *   - table(): long format, one row per cell, columns = axes + metrics;
 *   - pivot(): one axis across the columns (e.g. Fig. 6a's one column per
 *     RNR delay), rows over a second axis.
 * Both emit identical JSON rows; only the stdout/CSV rendering differs.
 */

#ifndef IBSIM_EXP_RESULT_SINK_HH
#define IBSIM_EXP_RESULT_SINK_HH

#include <cstdio>
#include <string>
#include <vector>

#include "exp/trial_runner.hh"

namespace ibsim {
namespace exp {

/** Which summary statistic of a metric a table column shows. */
enum class Stat : std::uint8_t
{
    Mean,
    Min,
    Max,
    Sum,
    Stddev,
    Count,
    PctMean,  ///< mean x 100 (probability-of-event columns)
    P95,
};

/** One metric column of a table. */
struct MetricColumn
{
    std::string metric;    ///< Metrics name set by the trial function
    Stat stat = Stat::Mean;
    std::string header;    ///< column header ("" = metric name)
    int precision = 3;
};

/** Shorthand constructor. */
MetricColumn col(std::string metric, Stat stat = Stat::Mean,
                 int precision = 3, std::string header = "");

double statOf(const Accumulator& acc, Stat stat);
const char* statName(Stat stat);

class ResultSink
{
  public:
    struct Options
    {
        std::string benchName;
        /** Output paths; empty falls back to IBSIM_JSON / IBSIM_CSV.
         * The constructor opens each named path for appending and exits
         * with status 2 when it cannot. */
        std::string jsonPath;
        std::string csvPath;
        /** Suppress the stdout rendering (JSON/CSV still written). */
        bool quiet = false;
        std::size_t columnWidth = 14;
    };

    explicit ResultSink(Options options);

    /** Long-format table: one row per cell. */
    void table(const std::string& section, const SweepResult& result,
               const std::vector<MetricColumn>& columns);

    /**
     * Pivot table: rows over @p row_axis, one column per value of
     * @p col_axis, cells showing @p metric.
     */
    void pivot(const std::string& section, const SweepResult& result,
               const std::string& row_axis, const std::string& col_axis,
               const MetricColumn& metric);

    /** Free-form stdout line (suppressed by quiet; not mirrored). */
    void note(const std::string& text);

    /** Blank stdout line for layout. */
    void blank();

    /**
     * Emit the JSON rows of @p result without printing a table (for
     * benches whose stdout is a packet-workflow rendering).
     */
    void jsonOnly(const std::string& section, const SweepResult& result);

    const std::string& jsonPath() const { return jsonPath_; }

  private:
    void printRow(const std::vector<std::string>& cells,
                  std::size_t width) const;
    void appendCsv(const std::string& section,
                   const std::vector<std::string>& cells) const;
    void writeJson(const std::string& section, const SweepResult& result);

    Options options_;
    std::string jsonPath_;
    std::string csvPath_;
};

/**
 * Create @p path or open it for appending; on failure print
 * "<what>: cannot open '<path>'" and exit with status 2, so a bench
 * never runs with an output it would silently drop. An empty path is a
 * no-op.
 */
void requireWritable(const char* what, const std::string& path);

/** Minimal JSON string escaping for keys/values we emit. */
std::string jsonEscape(const std::string& s);

} // namespace exp
} // namespace ibsim

#endif // IBSIM_EXP_RESULT_SINK_HH
