/**
 * @file
 * Shared command-line entry points for the bench binaries.
 *
 * Every standalone bench binary is the same eight lines: build a
 * Registry, register the suite, and hand argv to standaloneMain() with
 * the bench's name. The multiplexed odp_bench_cli uses runBenches() to
 * execute a --filter selection under one RunContext.
 *
 * Common flags (both entry points):
 *   --quick        reduced trial budgets (the old per-bench --quick)
 *   --jobs N       worker threads (default: IBSIM_JOBS, then hw threads)
 *   --seed N       offset every seed stream (default 0)
 *   --json PATH    JSON-lines output (default: IBSIM_JSON env)
 *   --csv PATH     CSV mirror (default: IBSIM_CSV env)
 *
 * Numbers from the command line and from IBSIM_* overrides all go
 * through parseNumber(): malformed input is an error exit, never a
 * silent default.
 */

#ifndef IBSIM_EXP_BENCH_MAIN_HH
#define IBSIM_EXP_BENCH_MAIN_HH

#include <charconv>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/registry.hh"

namespace ibsim {
namespace exp {

/** Report a rejected number for @p what on stderr and exit(2). */
[[noreturn]] void badNumber(const std::string& what, const std::string& text,
                            const std::string& lo, const std::string& hi);

/** Render a parseNumber() bound for the error message. */
std::string formatBound(double bound);

/**
 * Parse all of @p text as a T in [@p lo, @p hi]. An empty string,
 * trailing characters, a sign on an unsigned type, overflow or an
 * out-of-range value reports "<what>: invalid value ..." and exits with
 * status 2.
 */
template <typename T>
T
parseNumber(const std::string& what, const std::string& text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (text.empty() || ec != std::errc() || end != last ||
        !(value >= lo && value <= hi)) {
        if constexpr (std::is_integral_v<T>)
            badNumber(what, text, std::to_string(lo), std::to_string(hi));
        else
            badNumber(what, text, formatBound(lo), formatBound(hi));
    }
    return value;
}

/**
 * Parse the common flags out of argv into @p ctx. Unrecognized arguments
 * are left for the caller (returned); returns false on a missing value
 * and exits on a malformed number.
 */
bool parseCommonFlags(int argc, char** argv, RunContext& ctx,
                      std::vector<std::string>& rest);

/** Run one selection of benches, printing a header per bench. */
int runBenches(const Registry& registry,
               const std::vector<const BenchInfo*>& selection,
               const RunContext& ctx);

/**
 * main() body of a standalone bench binary: common flags only, then the
 * named bench.
 */
int standaloneMain(int argc, char** argv, const Registry& registry,
                   const std::string& bench_name);

} // namespace exp
} // namespace ibsim

#endif // IBSIM_EXP_BENCH_MAIN_HH
