/**
 * @file
 * perfbench driver: runs one workload for a wall-clock budget and prints
 * its metrics, the output checks and, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--jobs J] [--reps R] [--rev REV] [--spans PATH]
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates an
 * untraced and a traced repetition on the same seed, checks that their
 * simulated fingerprints agree, and reports the per-layer metrics plus
 * the traced/untraced wall ratio. --reps fixes the repetition count
 * (ignoring --seconds); --jobs overrides island_mesh's worker count.
 * Exit status: 0 = every check passed, 1 = a check failed, 2 = bad usage.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/seed_stream.hh"
#include "perfbench.hh"

namespace perfbench {

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    for (const Span& s : spans_) {
        char line[192];
        std::snprintf(line, sizeof(line),
                      "{\"name\": \"%s\", \"rep\": %u, \"start_ns\": %.0f, "
                      "\"dur_ns\": %.0f}\n",
                      s.name, s.rep, s.startNs, s.durNs);
        out << line;
    }
    return static_cast<bool>(out);
}

namespace {

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr,
                 "perfbench: error: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--jobs J] [--reps R] "
                 "[--rev REV] [--spans PATH]\n",
                 message.c_str());
    std::exit(2);
}

/**
 * Parse the whole of @p text as a decimal integer in [lo, hi]. Signs,
 * spaces, trailing junk and out-of-range values are usage errors, never
 * silent defaults.
 */
std::uint64_t
parseUint(const std::string& flag, std::string_view text, std::uint64_t lo,
          std::uint64_t hi)
{
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
        value > hi)
        usageError(flag + ": expected an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + std::string(text) + "'");
    return value;
}

struct Args
{
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    bool trace = false;
    unsigned jobs = 2;
    std::uint64_t reps = 0;  ///< 0: run for `seconds`
    std::string rev = "unknown";
    std::string spans;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    std::map<std::string, std::string> given;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        static const char* known[] = {"--workload", "--seed", "--seconds",
                                      "--trace",    "--jobs", "--reps",
                                      "--rev",      "--spans"};
        if (std::find_if(std::begin(known), std::end(known),
                         [&](const char* k) { return flag == k; }) ==
            std::end(known))
            usageError("unknown argument '" + flag + "'");
        if (i + 1 >= argc)
            usageError(flag + " needs a value");
        if (!given.emplace(flag, argv[i + 1]).second)
            usageError(flag + " given twice");
    }
    const auto need = [&](const char* flag) -> const std::string& {
        const auto it = given.find(flag);
        if (it == given.end())
            usageError(std::string(flag) + " is required");
        return it->second;
    };

    const std::string& name = need("--workload");
    std::string names;
    for (const Workload& w : workloads()) {
        if (name == w.name)
            args.workload = &w;
        names += names.empty() ? w.name : std::string(", ") + w.name;
    }
    if (args.workload == nullptr)
        usageError("--workload: unknown workload '" + name +
                   "' (choose one of: " + names + ")");
    args.seed = parseUint("--seed", need("--seed"), 0, UINT64_MAX);
    args.trace = parseUint("--trace", need("--trace"), 0, 1) == 1;
    if (given.count("--reps"))
        args.reps = parseUint("--reps", given["--reps"], 1, 100000);
    if (given.count("--seconds") || args.reps == 0)
        args.seconds = parseUint("--seconds", need("--seconds"), 1, 120);
    if (given.count("--jobs")) {
        if (!args.workload->sharded)
            usageError("--jobs applies to sharded workloads only");
        args.jobs = static_cast<unsigned>(
            parseUint("--jobs", given["--jobs"], 1, 64));
    }
    if (given.count("--rev"))
        args.rev = given["--rev"];
    if (given.count("--spans"))
        args.spans = given["--spans"];
    return args;
}

/** Linear-interpolated quantile (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Median over repetitions of one per-repetition value. */
template <typename F>
double
medianOf(const std::vector<RepResult>& reps, F&& per_rep)
{
    std::vector<double> v;
    v.reserve(reps.size());
    for (const RepResult& r : reps)
        v.push_back(per_rep(r));
    return quantile(std::move(v), 0.5);
}

/**
 * Host-time end-to-end metrics are computed over the quietest fifth of the
 * repetitions (at least one), ranked by wall time. Other tenants of a
 * shared host only ever add time, and on the VM this benchmark was tuned on
 * their cache contention came in phases of several seconds that slowed the
 * simulator by up to 1.5x and could cover most of a run, so even the lower
 * quartile of all repetitions landed in them.
 */
constexpr std::size_t quietShare = 5;

std::vector<RepResult>
quietest(const std::vector<RepResult>& reps)
{
    std::vector<std::size_t> order(reps.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const std::size_t keep = std::min<std::size_t>(
        reps.size(), std::max<std::size_t>(1, reps.size() / quietShare));
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return reps[a].phases.total() <
                                 reps[b].phases.total();
                      });
    std::vector<RepResult> quiet;
    quiet.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i)
        quiet.push_back(reps[order[i]]);
    return quiet;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
 * would also carry the launching parent's peak across fork and exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    return 0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Every cluster lifetime of the run, in microseconds. */
std::vector<double>
trialSamplesUs(const std::vector<RepResult>& reps)
{
    std::vector<double> us;
    for (const RepResult& r : reps)
        for (const double ns : r.trialNs)
            us.push_back(ns / 1e3);
    return us;
}

/**
 * The tail percentile trial_us_tail reports: p95, lowered to the highest
 * percentile that still has ten samples beyond it (the quiet repetitions
 * of a flood run hold tens of trials, of a damming run tens of
 * thousands). Beyond p95 the damming trials' tail is set by host
 * interrupts, not by the simulator.
 */
double
tailLevel(std::size_t samples)
{
    const double n = static_cast<double>(samples);
    return std::clamp(1.0 - 10.0 / n, 0.5, 0.95);
}

/** End-to-end metrics of the quiet repetitions (see quietest()). */
std::vector<Metric>
endToEnd(const std::vector<RepResult>& quiet, double peak_rss_mb)
{
    const std::vector<double> trialsUs = trialSamplesUs(quiet);
    return {
        {"setup_s",
         medianOf(quiet, [](const RepResult& r) {
             return r.phases.setup() / 1e9;
         }),
         "s"},
        {"wall_s",
         medianOf(quiet, [](const RepResult& r) {
             return r.phases.total() / 1e9;
         }),
         "s"},
        {"ns_per_pkt",
         medianOf(quiet,
                  [](const RepResult& r) {
                      return ratio(r.phases.runPhase(),
                                   static_cast<double>(r.fp.packets));
                  }),
         "ns"},
        {"trial_us_p50", quantile(trialsUs, 0.50), "us"},
        {"trial_us_tail",
         quantile(trialsUs, tailLevel(trialsUs.size())), "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
}

std::vector<Metric>
perLayer(const std::vector<RepResult>& traced,
         const std::vector<RepResult>& plain)
{
    const auto m = [&](const char* name, const char* unit, auto per_rep) {
        return Metric{name, medianOf(traced, per_rep), unit};
    };
    using R = const RepResult&;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto perCluster = [](double v, R r) {
        return ratio(v, static_cast<double>(r.clusters));
    };
    std::vector<Metric> out = {
        m("rnic.rx_ns_per_pkt", "ns",
          [&](R r) { return ratio(r.rxNs, d(r.rxPkts)); }),
        m("rnic.rx_pkts", "count", [&](R r) { return d(r.rxPkts); }),
        m("rnic.retransmissions", "count",
          [&](R r) { return d(r.counters.retransmissions); }),
        m("rnic.timeouts", "count",
          [&](R r) { return d(r.counters.timeouts); }),
        m("rnic.discarded_fault", "count",
          [&](R r) { return d(r.counters.discardedFault); }),
        m("rnic.discarded_stale", "count",
          [&](R r) { return d(r.counters.discardedStale); }),
        m("rnic.useful_ratio", "ratio",
          [&](R r) { return ratio(d(r.wrsOk), d(r.counters.requestsSent)); }),
        m("simcore.events_per_pkt", "ratio",
          [&](R r) { return ratio(d(r.fp.events), d(r.fp.packets)); }),
        // Worker-time basis: the sharded kernel's receive spans run on
        // `jobs` workers at once.
        m("simcore.self_ns_per_pkt", "ns",
          [&](R r) {
              return ratio(r.phases.runPhase() * r.jobs - r.rxNs -
                               r.phases.postCalls,
                           d(r.fp.packets));
          }),
        m("simcore.pool_nodes", "count",
          [&](R r) { return d(r.counters.poolNodes); }),
        m("simcore.cancelled", "count",
          [&](R r) { return d(r.counters.cancelled); }),
        m("simcore.rounds", "count",
          [&](R r) { return d(r.counters.rounds); }),
        m("simcore.channel_parcels", "count",
          [&](R r) { return d(r.counters.channelParcels); }),
        m("simcore.steals", "count",
          [&](R r) { return d(r.counters.steals); }),
        m("simcore.imbalance", "ratio",
          [&](R r) { return r.counters.imbalance; }),
        m("simcore.busy_mean", "ratio",
          [&](R r) { return r.counters.busyMean; }),
        m("net.pkts_sent", "count", [&](R r) { return d(r.fp.packets); }),
        m("net.pkts_dropped", "count",
          [&](R r) { return d(r.counters.pktsDropped); }),
        m("net.pool_grows", "count",
          [&](R r) { return d(r.counters.poolGrows); }),
        m("net.pool_peak_in_flight", "count",
          [&](R r) { return d(r.counters.poolPeakInFlight); }),
        m("odp.faults_raised", "count",
          [&](R r) { return d(r.counters.faultsRaised); }),
        m("odp.faults_coalesced", "count",
          [&](R r) { return d(r.counters.faultsCoalesced); }),
        m("odp.waiters_registered", "count",
          [&](R r) { return d(r.counters.waitersRegistered); }),
        m("odp.update_failures", "count",
          [&](R r) { return d(r.counters.updateFailures); }),
        m("odp.slow_refreshes", "count",
          [&](R r) { return d(r.counters.slowRefreshes); }),
        m("mem.present_pages", "count",
          [&](R r) { return d(r.counters.presentPages); }),
        m("verbs.post_ns_per_wr", "ns",
          [&](R r) { return ratio(r.phases.postCalls, d(r.wrsPosted)); }),
        m("verbs.wrs_posted", "count", [&](R r) { return d(r.wrsPosted); }),
        m("cluster.build_ns", "ns",
          [&](R r) { return perCluster(r.phases.build, r); }),
        m("cluster.connect_ns_per_qp", "ns",
          [&](R r) { return ratio(r.phases.connect, d(r.qpsConnected)); }),
        m("cluster.register_ns", "ns",
          [&](R r) { return perCluster(r.phases.reg, r); }),
        m("cluster.teardown_ns", "ns",
          [&](R r) { return perCluster(r.phases.teardown, r); }),
        m("chaos.attach_ns", "ns",
          [&](R r) { return perCluster(r.phases.attach, r); }),
        m("chaos.final_check_ns", "ns",
          [&](R r) { return perCluster(r.phases.finalCheck, r); }),
        m("chaos.violations", "count",
          [&](R r) { return d(r.counters.violations); }),
        m("capture.entries", "count",
          [&](R r) { return perCluster(d(r.counters.captureEntries), r); }),
        m("pitfall.detect_ns_per_trial", "ns",
          [&](R r) { return perCluster(r.phases.detect, r); }),
        m("pitfall.detector_agreement", "ratio",
          [&](R r) {
              return r.timedOutByInterval.empty()
                         ? 0.0
                         : perCluster(d(r.detectorAgree), r);
          }),
    };
    const auto wall = [](R r) { return r.phases.total(); };
    out.push_back({"trace.wall_ratio",
                   ratio(medianOf(traced, wall), medianOf(plain, wall)),
                   "ratio"});
    return out;
}

/** The workload-specific output checks over the whole run. */
void
checkRun(const Args& args, const std::vector<RepResult>& reps,
         const std::string& label, std::vector<std::string>& errors)
{
    for (std::size_t i = 0; i < reps.size(); ++i)
        for (const std::string& e : reps[i].errors)
            errors.push_back(label + " " + std::to_string(i) + ": " + e);
    if (std::string_view(args.workload->name) != "damming_sweep")
        return;
    // The Fig. 4 plateau: every trial with an interval inside the first
    // READ's pending window times out, none well past it does.
    for (std::size_t iv = 0; iv < dammingIntervals; ++iv) {
        const double ms = dammingIntervalMs(iv);
        std::uint64_t timedOut = 0;
        for (const RepResult& r : reps)
            timedOut += r.timedOutByInterval[iv];
        const bool plateau = ms >= 0.5 && ms <= 4.0;
        if ((plateau && timedOut != reps.size()) ||
            (ms >= 5.0 && timedOut != 0)) {
            char line[128];
            std::snprintf(line, sizeof(line),
                          "%s damming plateau broken at %.2f ms: %llu of "
                          "%zu trials timed out",
                          label.c_str(), ms,
                          static_cast<unsigned long long>(timedOut),
                          reps.size());
            errors.push_back(line);
        }
    }
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int
runMain(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload& w = *args.workload;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
    const bool usable = true;
#else
    const bool usable = false;
#endif
    std::printf("stamp: nproc=%u build_type=%s flags=\"%s\" "
                "compiler=\"gcc %s\" rev=%s usable=%s\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS, __VERSION__, args.rev.c_str(),
                usable ? "yes" : "no (needs NDEBUG and optimisation)");
    std::printf("workload: %s (%s)\n", w.name, w.why);
    std::fflush(stdout);

    const ibsim::exp::SeedStream seeds(std::string("perfbench.") + w.name,
                                args.seed);
    Tracer plainTracer(false);
    Tracer tracer(true);
    // One untimed warm-up repetition (its own seed) fills the allocator
    // and caches; its outputs are still checked.
    const auto start = Clock::now();
    std::vector<RepResult> warm, plain, traced;
    warm.push_back(w.rep(seeds.trialSeed(1, 0), plainTracer, args.jobs));
    std::vector<std::string> errors;
    double peakRss = 0;
    constexpr std::size_t minReps = 3;
    // Peak memory is read after this many repetitions: later ones rebuild
    // the same shapes, and the harness's growing result storage stays out.
    constexpr std::size_t rssReps = 5;
    const auto budgetNs = static_cast<double>(args.seconds) * 1e9;
    for (std::uint32_t rep = 0;; ++rep) {
        if (args.reps > 0 ? rep >= args.reps
                          : rep >= minReps &&
                                nsBetween(start, Clock::now()) >= budgetNs)
            break;
        const std::uint64_t seed = seeds.trialSeed(0, rep);
        plain.push_back(w.rep(seed, plainTracer, args.jobs));
        if (rep < rssReps)
            peakRss = peakRssMb();
        if (rep == 0)
            std::printf("fingerprint: workload=%s seed=%llu rep=0 %s\n",
                        w.name, static_cast<unsigned long long>(args.seed),
                        plain.back().fp.str().c_str());
        if (!args.trace)
            continue;
        tracer.setRep(rep);
        traced.push_back(w.rep(seed, tracer, args.jobs));
        if (!(traced.back().fp == plain.back().fp))
            errors.push_back("rep " + std::to_string(rep) +
                             ": traced fingerprint " +
                             traced.back().fp.str() +
                             " differs from untraced " +
                             plain.back().fp.str());
    }
    checkRun(args, warm, "warm-up rep", errors);
    checkRun(args, plain, "rep", errors);
    checkRun(args, traced, "traced rep", errors);

    std::uint64_t attempted = 0, failed = 0;
    for (const auto* set : {&warm, &plain, &traced}) {
        for (const RepResult& r : *set) {
            attempted += r.wrsPosted;
            failed += r.wrsPosted - std::min(r.wrsOk, r.wrsPosted);
        }
    }
    if (failed > 0)
        errors.push_back(std::to_string(failed) + " of " +
                         std::to_string(attempted) +
                         " WRs did not complete with success");

    const std::vector<RepResult> quiet =
        args.trace ? std::vector<RepResult>() : quietest(plain);
    const std::vector<Metric> metrics =
        args.trace ? perLayer(traced, plain) : endToEnd(quiet, peakRss);
    if (args.trace)
        std::printf("per-layer metrics over %zu repetitions (medians of "
                    "traced repetitions):\n",
                    plain.size());
    else
        std::printf("end-to-end metrics over the quietest %zu of %zu "
                    "repetitions by wall time (medians; trial quantiles "
                    "over their trials):\n",
                    quiet.size(), plain.size());
    for (const Metric& m : metrics)
        std::printf("  %-28s %16.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!args.trace) {
        const std::vector<double> us = trialSamplesUs(quiet);
        std::printf("  trial samples: %zu, tail = p%.1f (us: p10 %.2f, "
                    "p50 %.2f, p90 %.2f, p99 %.2f)\n",
                    us.size(), 100 * tailLevel(us.size()),
                    quantile(us, 0.10), quantile(us, 0.50),
                    quantile(us, 0.90), quantile(us, 0.99));
    }
    if (std::string_view(w.name) == "damming_sweep") {
        std::uint64_t agree = 0, trials = 0;
        for (const auto* set : {&warm, &plain, &traced}) {
            for (const RepResult& r : *set) {
                agree += r.detectorAgree;
                trials += r.clusters;
            }
        }
        std::printf("  detector agreement: %llu of %llu trials (damming "
                    "verdict == transport timeout fired)\n",
                    static_cast<unsigned long long>(agree),
                    static_cast<unsigned long long>(trials));
    }
    if (args.trace && !args.spans.empty()) {
        if (tracer.write(args.spans))
            std::printf("spans: %zu written to %s (%llu beyond the cap "
                        "dropped)\n",
                        tracer.size(), args.spans.c_str(),
                        static_cast<unsigned long long>(tracer.dropped()));
        else
            errors.push_back("could not write spans to " + args.spans);
    }
    if (!usable)
        errors.push_back("unusable build: results need NDEBUG and "
                         "optimisation");

    for (const std::string& e : errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("checks: %s\n", errors.empty() ? "all passed" : "FAILED");

    std::string json = "{\"correct\": ";
    json += errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return errors.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    return perfbench::runMain(argc, argv);
}
