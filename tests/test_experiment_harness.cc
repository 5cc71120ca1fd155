/**
 * @file
 * Tests of the ibsim::exp experiment harness: seed-stream disjointness,
 * the Sweep grid builder, the TrialRunner's bit-identical parallel
 * determinism (accumulators and JSON output), the ResultSink CSV mirror,
 * the registry glob matcher,
 * log:: thread safety, the MicroBenchmark run-once contract, and checked
 * number parsing of CLI flags and IBSIM_* axis overrides.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "cluster/cluster.hh"
#include "simcore/rng.hh"
#include "exp/bench_main.hh"
#include "exp/registry.hh"
#include "exp/result_sink.hh"
#include "exp/seed_stream.hh"
#include "exp/sweep.hh"
#include "exp/trial_runner.hh"
#include "pitfall/microbench.hh"
#include "simcore/log.hh"

using namespace ibsim;

// ---------------------------------------------------------------- seeds

TEST(SeedStream, TrialSeedsAreDisjointWithinAStream)
{
    exp::SeedStream seeds("test_bench", 42);
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t cell = 0; cell < 64; ++cell)
        for (std::uint64_t trial = 0; trial < 64; ++trial)
            EXPECT_TRUE(seen.insert(seeds.trialSeed(cell, trial)).second)
                << "collision at cell " << cell << " trial " << trial;
    EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(SeedStream, DifferentBenchNamesYieldDifferentStreams)
{
    exp::SeedStream a("fig4", 0);
    exp::SeedStream b("fig6", 0);
    std::size_t equal = 0;
    for (std::uint64_t t = 0; t < 256; ++t)
        if (a.trialSeed(0, t) == b.trialSeed(0, t))
            ++equal;
    EXPECT_EQ(equal, 0u);
}

TEST(SeedStream, UserSeedShiftsTheWholeStream)
{
    exp::SeedStream a("fig4", 0);
    exp::SeedStream b("fig4", 1);
    EXPECT_NE(a.trialSeed(0, 0), b.trialSeed(0, 0));
    // Same inputs reproduce the same seed (pure function of the tuple).
    EXPECT_EQ(a.trialSeed(3, 7), exp::SeedStream("fig4", 0).trialSeed(3, 7));
}

TEST(SeedStream, SplitMix64IsABijectionOnSamples)
{
    // Distinct inputs map to distinct outputs (spot check; the finalizer
    // is invertible by construction).
    std::unordered_set<std::uint64_t> outs;
    for (std::uint64_t x = 0; x < 10000; ++x)
        outs.insert(exp::splitmix64(x));
    EXPECT_EQ(outs.size(), 10000u);
}

// ---------------------------------------------------------------- sweep

TEST(Sweep, CartesianGridRowMajorLastAxisFastest)
{
    exp::Sweep sweep;
    sweep.axis("a", {1.0, 2.0}, 0)
        .axis("b", std::vector<std::string>{"x", "y", "z"});
    EXPECT_EQ(sweep.cellCount(), 6u);
    const auto cells = sweep.cells();
    EXPECT_EQ(cells[0].num("a"), 1.0);
    EXPECT_EQ(cells[0].str("b"), "x");
    EXPECT_EQ(cells[1].str("b"), "y");
    EXPECT_EQ(cells[3].num("a"), 2.0);
    EXPECT_EQ(cells[3].str("b"), "x");
    EXPECT_EQ(cells[5].valueIndex("b"), 2u);
}

TEST(Sweep, RangeIsInclusiveOfBothEnds)
{
    const auto vals = exp::Sweep::range(0.0, 6.0, 0.25);
    ASSERT_EQ(vals.size(), 25u);
    EXPECT_DOUBLE_EQ(vals.front(), 0.0);
    EXPECT_DOUBLE_EQ(vals.back(), 6.0);
}

TEST(Sweep, EmptyAxisThrows)
{
    exp::Sweep sweep;
    EXPECT_THROW(sweep.axis("empty", std::vector<double>{}, 0),
                 std::logic_error);
}

// --------------------------------------------------------------- runner

namespace {

/** A deterministic trial: hashes the seed through a tiny simulation. */
exp::Metrics
syntheticTrial(const exp::Cell& cell, std::uint64_t seed)
{
    Rng rng(seed);
    double acc = cell.num("x");
    for (int i = 0; i < 100; ++i)
        acc += rng.uniform(0.0, 1.0);
    exp::Metrics m;
    m.set("acc", acc);
    m.set("seed_lo", static_cast<double>(seed & 0xffffffffu));
    return m;
}

exp::SweepResult
runSynthetic(unsigned jobs)
{
    exp::Sweep sweep;
    sweep.axis("x", exp::Sweep::range(0.0, 9.0, 1.0), 0);
    exp::TrialRunner::Options options;
    options.jobs = jobs;
    options.seeds = exp::SeedStream("synthetic", 7);
    return exp::TrialRunner(options).run(sweep, 8, syntheticTrial);
}

} // namespace

TEST(TrialRunner, ParallelIsBitIdenticalToSequential)
{
    const auto seq = runSynthetic(1);
    const auto par = runSynthetic(8);
    ASSERT_EQ(seq.cells.size(), par.cells.size());
    for (std::size_t c = 0; c < seq.cells.size(); ++c) {
        const auto& a = seq.cells[c].metric("acc");
        const auto& b = par.cells[c].metric("acc");
        // Bit-identical, not just close: same seeds, same aggregation
        // order.
        EXPECT_EQ(a.mean(), b.mean());
        EXPECT_EQ(a.min(), b.min());
        EXPECT_EQ(a.max(), b.max());
        EXPECT_EQ(a.stddev(), b.stddev());
        EXPECT_EQ(a.count(), b.count());
        EXPECT_EQ(seq.cells[c].metric("seed_lo").sum(),
                  par.cells[c].metric("seed_lo").sum());
    }
}

TEST(TrialRunner, JsonLinesAreBitIdenticalAcrossJobCounts)
{
    auto render = [](unsigned jobs, const std::string& path) {
        const auto result = runSynthetic(jobs);
        exp::ResultSink::Options options;
        options.benchName = "synthetic";
        options.jsonPath = path;
        options.quiet = true;
        exp::ResultSink sink(options);
        sink.jsonOnly("grid", result);
    };
    const std::string p1 = "harness_jobs1.jsonl";
    const std::string p8 = "harness_jobs8.jsonl";
    render(1, p1);
    render(8, p8);
    std::ifstream f1(p1), f8(p8);
    std::stringstream s1, s8;
    s1 << f1.rdbuf();
    s8 << f8.rdbuf();
    EXPECT_FALSE(s1.str().empty());
    EXPECT_EQ(s1.str(), s8.str());
    std::remove(p1.c_str());
    std::remove(p8.c_str());
}

TEST(TrialRunner, RealSimulationIsBitIdenticalAcrossJobCounts)
{
    // The actual pitfall micro-benchmark, not a synthetic hash: two
    // damming trials per cell across the interval axis.
    auto run = [](unsigned jobs) {
        exp::Sweep sweep;
        sweep.axis("interval_ms", {0.0, 1.0, 5.0}, 1);
        exp::TrialRunner::Options options;
        options.jobs = jobs;
        options.seeds = exp::SeedStream("harness_sim_test", 3);
        return exp::TrialRunner(options).run(
            sweep, 2, [](const exp::Cell& cell, std::uint64_t seed) {
                pitfall::MicroBenchConfig config;
                config.numOps = 2;
                config.interval = Time::ms(cell.num("interval_ms"));
                config.odpMode = pitfall::OdpMode::BothSide;
                config.capture = false;
                pitfall::MicroBenchmark bench(
                    config, rnic::DeviceProfile::knl(), seed);
                auto r = bench.run();
                return exp::Metrics{}
                    .set("exec_s", r.executionTime.toSec())
                    .set("timeout", r.timedOut());
            });
    };
    const auto seq = run(1);
    const auto par = run(8);
    for (std::size_t c = 0; c < seq.cells.size(); ++c) {
        EXPECT_EQ(seq.cells[c].metric("exec_s").mean(),
                  par.cells[c].metric("exec_s").mean());
        EXPECT_EQ(seq.cells[c].metric("exec_s").stddev(),
                  par.cells[c].metric("exec_s").stddev());
        EXPECT_EQ(seq.cells[c].metric("timeout").sum(),
                  par.cells[c].metric("timeout").sum());
    }
}

TEST(TrialRunner, MetricsKeepFirstTrialInsertionOrder)
{
    exp::Sweep sweep;
    sweep.axis("x", {1.0}, 0);
    exp::TrialRunner::Options options;
    options.jobs = 1;
    options.seeds = exp::SeedStream("order", 0);
    const auto result = exp::TrialRunner(options).run(
        sweep, 1, [](const exp::Cell&, std::uint64_t) {
            return exp::Metrics{}.set("zeta", 1.0).set("alpha", 2.0);
        });
    const auto& metrics = result.cells[0].metrics();
    ASSERT_EQ(metrics.size(), 2u);
    EXPECT_EQ(metrics[0].first, "zeta");
    EXPECT_EQ(metrics[1].first, "alpha");
}

TEST(TrialRunner, PropagatesTrialExceptions)
{
    exp::Sweep sweep;
    sweep.axis("x", {1.0, 2.0}, 0);
    exp::TrialRunner::Options options;
    options.jobs = 4;
    options.seeds = exp::SeedStream("throwing", 0);
    EXPECT_THROW(
        exp::TrialRunner(options).run(
            sweep, 4,
            [](const exp::Cell& cell, std::uint64_t) -> exp::Metrics {
                if (cell.index() == 1)
                    throw std::runtime_error("boom");
                return exp::Metrics{}.set("ok", 1.0);
            }),
        std::runtime_error);
}

// ------------------------------------------------------------ CSV mirror

namespace {

/** Two cells (a = 1, 3) whose one trial sets b = a + 1. */
exp::SweepResult
twoRowResult()
{
    exp::Sweep sweep;
    sweep.axis("a", {1.0, 3.0}, 0);
    exp::TrialRunner::Options options;
    options.jobs = 1;
    options.seeds = exp::SeedStream("csv", 0);
    return exp::TrialRunner(options).run(
        sweep, 1, [](const exp::Cell& cell, std::uint64_t) {
            return exp::Metrics{}.set("b", cell.num("a") + 1.0);
        });
}

/** Render twoRowResult() through a quiet sink named "csv". */
void
renderTwoRows()
{
    exp::ResultSink::Options options;
    options.benchName = "csv";
    options.quiet = true;
    exp::ResultSink sink(options);
    sink.table("s", twoRowResult(), {exp::col("b", exp::Stat::Mean, 0, "b")});
}

} // namespace

TEST(TablePrinterCsv, MirrorsRowsWhenEnvSet)
{
    const char* path = "/tmp/ibsim_csv_test.csv";
    std::remove(path);
    ::setenv("IBSIM_CSV", path, 1);
    renderTwoRows();
    ::unsetenv("IBSIM_CSV");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "csv,s,a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "csv,s,1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "csv,s,3,4");
    EXPECT_FALSE(std::getline(in, line));
    std::remove(path);
}

TEST(TablePrinterCsv, NoEnvNoFile)
{
    const char* path = "/tmp/ibsim_csv_test2.csv";
    std::remove(path);
    ::unsetenv("IBSIM_CSV");
    renderTwoRows();
    std::ifstream in(path);
    EXPECT_FALSE(in.good());
}

// ------------------------------------------------------------- registry

TEST(Registry, GlobMatching)
{
    EXPECT_TRUE(exp::globMatch("fig*", "fig4"));
    EXPECT_TRUE(exp::globMatch("fig*", "fig11"));
    EXPECT_TRUE(exp::globMatch("*", "anything"));
    EXPECT_TRUE(exp::globMatch("fig?", "fig4"));
    EXPECT_FALSE(exp::globMatch("fig?", "fig11"));
    EXPECT_FALSE(exp::globMatch("fig*", "table1"));
    EXPECT_TRUE(exp::globMatch("ablation_*", "ablation_regcache"));
    EXPECT_TRUE(exp::globMatch("*cache*", "ablation_regcache"));
    EXPECT_FALSE(exp::globMatch("", "x"));
    EXPECT_TRUE(exp::globMatch("", ""));
}

TEST(Registry, MatchSelectsByCommaSeparatedGlobs)
{
    exp::Registry registry;
    auto noop = [](const exp::RunContext&) {};
    registry.add({"fig4", "", noop});
    registry.add({"fig6", "", noop});
    registry.add({"table1", "", noop});

    const auto figs = registry.match("fig*");
    ASSERT_EQ(figs.size(), 2u);
    EXPECT_EQ(figs[0]->name, "fig4");

    const auto mixed = registry.match("table1,fig6");
    ASSERT_EQ(mixed.size(), 2u);

    EXPECT_TRUE(registry.match("nope*").empty());
    EXPECT_THROW(registry.add({"fig4", "dup", noop}), std::logic_error);
}

// ------------------------------------------------------------------ log

namespace {
log::Component smokeTags[] = {log::Component("smoke0"),
                              log::Component("smoke1"),
                              log::Component("smoke2"),
                              log::Component("smoke3")};
} // namespace

TEST(LogThreadSafety, ConcurrentEnableTraceDisableSmoke)
{
    // No assertions beyond "does not crash / race": hammer the global
    // component-tag registry from several threads while others trace.
    log::disableAll();
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&stop, t] {
            const std::string tag = "smoke" + std::to_string(t);
            for (int i = 0; i < 500; ++i) {
                log::enable(tag);
                if (smokeTags[t].enabled())
                    log::disableAll();
            }
            stop = true;
        });
    }
    for (auto& th : threads)
        th.join();
    log::disableAll();
    EXPECT_FALSE(smokeTags[0].enabled());
}

// ----------------------------------------------------------- microbench

TEST(MicroBenchmark, RunIsCallableExactlyOnce)
{
    pitfall::MicroBenchConfig config;
    config.numOps = 1;
    config.odpMode = pitfall::OdpMode::None;
    config.capture = false;
    pitfall::MicroBenchmark bench(config, rnic::DeviceProfile::knl(), 1);
    EXPECT_NO_THROW(bench.run());
    EXPECT_THROW(bench.run(), std::logic_error);
}

// ------------------------------------------------------- checked parsing

TEST(CheckedParse, AcceptsWholeInRangeNumbers)
{
    EXPECT_EQ(exp::parseNumber<std::size_t>("--ops", "128", 1, 1024), 128u);
    EXPECT_DOUBLE_EQ(exp::parseNumber<double>("--rate", "0.25", 0.0, 1.0),
                     0.25);
    EXPECT_EQ(exp::parseNumber<std::uint64_t>("--seed",
                                              "18446744073709551615"),
              ~0ull);
}

TEST(CheckedParseDeathTest, RejectsJunkSignsAndRange)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto code = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(exp::parseNumber<std::size_t>("--ops", "12abc"), code,
                "--ops: invalid value '12abc'");
    EXPECT_EXIT(exp::parseNumber<std::size_t>("--ops", ""), code,
                "--ops: invalid value ''");
    EXPECT_EXIT(exp::parseNumber<std::size_t>("--ops", "-1"), code,
                "--ops: invalid value '-1'");
    EXPECT_EXIT(exp::parseNumber<unsigned>("--cack", "32", 0, 31), code,
                "expected a number in \\[0, 31\\]");
    EXPECT_EXIT(exp::parseNumber<double>("--rate", "nan", 0.0, 1.0), code,
                "--rate: invalid value 'nan'");
    EXPECT_EXIT(
        exp::parseNumber<std::uint64_t>("--seed", "18446744073709551616"),
        code, "--seed: invalid value");
}

namespace {

/** Run @p command through the shell: exit status and merged output. */
std::pair<int, std::string>
runCommand(const std::string& command)
{
    std::string output;
    FILE* pipe = popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return {-1, output};
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr)
        output += buf;
    const int status = pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

/** The run of @p command must fail with @p message on its output. */
void
expectRejected(const std::string& command, const std::string& message)
{
    const auto [code, output] = runCommand(command);
    EXPECT_NE(code, 0) << command << "\n" << output;
    EXPECT_NE(output.find(message), std::string::npos)
        << command << "\n" << output;
}

} // namespace

TEST(CliInput, ExploreRejectsNonNumericOps)
{
    // Used to run 0 ops silently.
    expectRejected(IBSIM_CLI_PATH " explore --ops abc",
                   "--ops: invalid value 'abc'");
}

TEST(CliInput, ExploreRejectsNegativeOps)
{
    // Used to die with an uncaught std::length_error.
    expectRejected(IBSIM_CLI_PATH " explore --ops -1",
                   "--ops: invalid value '-1'");
}

TEST(CliInput, SuiteRejectsNonNumericJobs)
{
    // Used to be accepted as --jobs 0.
    expectRejected(IBSIM_CLI_PATH " --jobs banana --list",
                   "--jobs: invalid value 'banana'");
}

TEST(CliInput, SuiteRejectsMalformedJobsEnv)
{
    // Used to fall back to the hardware thread count ("banana", "-3")
    // or truncate ("4x" ran 4 jobs).
    for (const char* value : {"banana", "4x", "-3", "0"}) {
        expectRejected(std::string("IBSIM_JSON=/dev/null IBSIM_JOBS=") +
                           value + " " IBSIM_CLI_PATH " fig4 --quick",
                       std::string("IBSIM_JOBS: invalid value '") + value +
                           "'");
    }
}

TEST(CliInput, UnwritableOutputExitsBeforeAnyTrial)
{
    // Used to drop every row silently and exit 0, so a gate reading the
    // file saw nothing to check.
    const std::string bad = "/nonexistent-dir/x.out";
    const std::pair<std::string, std::string> cases[] = {
        {IBSIM_CLI_PATH " fig4 --quick --json " + bad, "--json"},
        {IBSIM_CLI_PATH " fig4 --quick --csv " + bad, "--csv"},
        {"IBSIM_JSON=" + bad + " " IBSIM_CLI_PATH " fig4 --quick",
         "IBSIM_JSON"},
        {"IBSIM_JSON=/dev/null IBSIM_CSV=" + bad +
             " " IBSIM_CLI_PATH " fig4 --quick",
         "IBSIM_CSV"},
    };
    for (const auto& [command, what] : cases) {
        const auto [code, output] = runCommand(command);
        EXPECT_EQ(code, 2) << command << "\n" << output;
        EXPECT_NE(output.find(what + ": cannot open '" + bad + "'"),
                  std::string::npos)
            << command << "\n" << output;
        // No trial ran: the fig4 table never started.
        EXPECT_EQ(output.find("Fig. 4"), std::string::npos)
            << command << "\n" << output;
    }
}

TEST(CliInput, ExploreFlagsNeedTheSubcommand)
{
    expectRejected(IBSIM_CLI_PATH " --ops 2", "unknown option: --ops");
}

TEST(CliInput, ExploreAcceptsValidFlags)
{
    const auto [code, output] =
        runCommand(IBSIM_CLI_PATH " explore --ops 1 --interval-us 50 "
                   "--chaos-drop 0.5 --chaos-seed 7");
    EXPECT_EQ(code, 0) << output;
    EXPECT_NE(output.find("ops=1"), std::string::npos) << output;
}

TEST(CliInput, ScaleAxisRejectsMalformedEnv)
{
    // Used to fall back to the default axis ("banana") or truncate
    // ("1x" ran jobs=1).
    expectRejected("IBSIM_JSON=/dev/null IBSIM_SCALE_JOBS=banana "
                   IBSIM_SCALE_SMOKE_PATH " --quick",
                   "IBSIM_SCALE_JOBS: invalid value 'banana'");
    expectRejected("IBSIM_JSON=/dev/null IBSIM_SCALE_JOBS=1x "
                   IBSIM_SCALE_SMOKE_PATH " --quick",
                   "IBSIM_SCALE_JOBS: invalid value '1x'");
    // Below each axis' minimum: 0 islands segfaulted, 1 island printed
    // completed 0.00, and jobs = 0 / planes = 0 ran as 1 under a 0
    // label.
    const struct
    {
        const char* var;
        const char* value;
        const char* command;
    } tooSmall[] = {
        {"IBSIM_SCALE_ISLANDS", "0", IBSIM_SCALE_SMOKE_PATH " --quick"},
        {"IBSIM_SCALE_ISLANDS", "1", IBSIM_SCALE_SMOKE_PATH " --quick"},
        {"IBSIM_SCALE_JOBS", "0", IBSIM_SCALE_SMOKE_PATH " --quick"},
        {"IBSIM_FLOOD_JOBS", "0", IBSIM_CLI_PATH " flood_capacity --quick"},
        {"IBSIM_FLOOD_PLANES", "0",
         IBSIM_CLI_PATH " flood_capacity --quick"},
    };
    for (const auto& c : tooSmall) {
        expectRejected(std::string("IBSIM_JSON=/dev/null ") + c.var + "=" +
                           c.value + " " + c.command,
                       std::string(c.var) + ": invalid value '" + c.value +
                           "'");
    }
}
