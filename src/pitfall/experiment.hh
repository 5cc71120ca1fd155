/**
 * @file
 * Experiment harness utilities shared by the bench binaries.
 *
 * Small helpers for the house style of the paper's evaluation: repeated
 * trials over seeds, probability-of-event estimation, and fixed-width
 * table printing so each bench emits rows directly comparable to the
 * paper's tables and figure series.
 */

#ifndef IBSIM_PITFALL_EXPERIMENT_HH
#define IBSIM_PITFALL_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simcore/stats.hh"

namespace ibsim {
namespace pitfall {

/**
 * Run @p trials trials of @p fn (seeded 1..trials offset by @p seed_base)
 * and accumulate the returned sample values.
 */
Accumulator
runTrials(std::size_t trials,
          const std::function<double(std::uint64_t seed)>& fn,
          std::uint64_t seed_base = 0);

/**
 * Estimate P(event) over @p trials seeded trials, in percent.
 */
double
probabilityPercent(std::size_t trials,
                   const std::function<bool(std::uint64_t seed)>& fn,
                   std::uint64_t seed_base = 0);

/**
 * Fixed-width column table printer.
 *
 * When the IBSIM_CSV environment variable names a file, every table also
 * appends its rows there as CSV (header included), so the bench outputs
 * can be re-plotted directly. A path that cannot be opened exits with
 * status 2 at construction.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers,
                          std::size_t column_width = 14);

    /** Print the header row and separator. */
    void printHeader() const;

    /** Print one row (cells convertible to string). */
    void printRow(const std::vector<std::string>& cells) const;

    /** Format helpers. */
    static std::string fmt(double v, int precision = 3);
    static std::string fmt(std::uint64_t v);

  private:
    void appendCsv(const std::vector<std::string>& cells) const;

    std::vector<std::string> headers_;
    std::size_t width_;
    std::string csvPath_;
};

} // namespace pitfall
} // namespace ibsim

#endif // IBSIM_PITFALL_EXPERIMENT_HH
