/**
 * @file
 * odp_bench_cli — the multiplexed experiment runner.
 *
 * Suite mode runs any subset of the registered paper benches in one
 * process, sharing one RunContext (trial budget, thread pool, output
 * files):
 *
 *   odp_bench_cli --list
 *   odp_bench_cli --filter 'fig*' --jobs 8 --json results.jsonl
 *   odp_bench_cli fig4 fig6 ablation_workarounds --quick
 *
 * Explore mode is the paper's micro-benchmark (Fig. 3) with free
 * parameters, for probing the pitfall space beyond the canned benches:
 *
 *   odp_bench_cli explore --ops 2 --interval-us 1000 --mode both --trace
 *   odp_bench_cli explore --ops 128 --qps 128 --size 32 --interval-us 8 \
 *                 --mode client --cack 18 --detect
 *
 * Every numeric flag is range-checked (exp::parseNumber): a malformed
 * value is an error exit, never a silent default.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/suite.hh"
#include "capture/trace_format.hh"
#include "chaos/chaos_engine.hh"
#include "chaos/invariant_monitor.hh"
#include "exp/bench_main.hh"
#include "exp/seed_stream.hh"
#include "pitfall/detectors.hh"
#include "pitfall/microbench.hh"
#include "simcore/stats.hh"

using namespace ibsim;
using namespace ibsim::pitfall;

namespace {

struct ExploreOptions
{
    MicroBenchConfig config;
    rnic::DeviceProfile profile = rnic::DeviceProfile::knl();
    std::string device = "cx4";
    std::size_t trials = 1;
    std::uint64_t seed = 0;
    bool trace = false;
    bool detect = false;

    /** --chaos-*: wire fault campaign layered onto the probe. */
    chaos::ChaosConfig chaos;
    bool chaosEnabled = false;
};

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [selection] [common flags]   # suite mode\n"
        "       %s explore [explore flags]      # free-parameter probe\n"
        "\n"
        "selection:\n"
        "  --list              print every registered bench and exit\n"
        "  --filter GLOBS      comma-separated glob list, e.g. 'fig*'\n"
        "  NAME...             bench names or globs as positionals\n"
        "  (no selection runs the full suite)\n"
        "\n"
        "common flags:\n"
        "  --quick             reduced trial budgets\n"
        "  --jobs N            worker threads (default: IBSIM_JOBS, then\n"
        "                      hardware threads)\n"
        "  --seed N            offset every seed stream (default 0)\n"
        "  --json PATH         JSON-lines output (default: IBSIM_JSON)\n"
        "  --csv PATH          CSV mirror (default: IBSIM_CSV)\n"
        "\n"
        "explore flags:\n"
        "  [--ops N] [--qps N] [--size BYTES] [--interval-us U]\n"
        "  [--mode none|server|client|both] [--device cx3|cx4|cx5|cx6]\n"
        "  [--cack N] [--rnr-ms F] [--trials N] [--seed N]\n"
        "  [--trace] [--detect]\n"
        "\n"
        "chaos flags (explore mode; rates are per-packet):\n"
        "  [--chaos-seed N] [--chaos-drop R] [--chaos-dup R]\n"
        "  [--chaos-reorder R] [--chaos-corrupt R] [--chaos-evade R]\n"
        "  [--chaos-delay-us U] [--chaos-nak R] [--chaos-flap-us U]\n",
        argv0, argv0);
}

bool
parseExplore(const std::vector<std::string>& args, ExploreOptions& opts)
{
    opts.config.numOps = 2;
    opts.config.interval = Time::ms(1);

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return args[++i];
        };
        auto count = [&](std::size_t hi) {
            return exp::parseNumber<std::size_t>(arg, next(), 1, hi);
        };
        auto real = [&](double hi) {
            return exp::parseNumber<double>(arg, next(), 0.0, hi);
        };
        auto seed = [&] {
            return exp::parseNumber<std::uint64_t>(arg, next());
        };
        if (arg == "--ops") {
            opts.config.numOps = count(1u << 20);
        } else if (arg == "--qps") {
            opts.config.numQps = count(1u << 16);
        } else if (arg == "--size") {
            opts.config.size = static_cast<std::uint32_t>(count(1u << 30));
        } else if (arg == "--interval-us") {
            opts.config.interval = Time::us(real(1e9));
        } else if (arg == "--mode") {
            const std::string mode = next();
            if (mode == "none")
                opts.config.odpMode = OdpMode::None;
            else if (mode == "server")
                opts.config.odpMode = OdpMode::ServerSide;
            else if (mode == "client")
                opts.config.odpMode = OdpMode::ClientSide;
            else if (mode == "both")
                opts.config.odpMode = OdpMode::BothSide;
            else
                return false;
        } else if (arg == "--device") {
            opts.device = next();
            if (opts.device == "cx3")
                opts.profile = rnic::DeviceProfile::connectX3();
            else if (opts.device == "cx4")
                opts.profile = rnic::DeviceProfile::knl();
            else if (opts.device == "cx5")
                opts.profile = rnic::DeviceProfile::connectX5();
            else if (opts.device == "cx6")
                opts.profile = rnic::DeviceProfile::connectX6();
            else
                return false;
        } else if (arg == "--cack") {
            opts.config.qpConfig.cack = static_cast<std::uint8_t>(
                exp::parseNumber<unsigned>(arg, next(), 0, 31));
        } else if (arg == "--rnr-ms") {
            opts.config.qpConfig.minRnrNakDelay = Time::ms(real(1e6));
        } else if (arg == "--trials") {
            opts.trials = count(1u << 20);
        } else if (arg == "--seed") {
            opts.seed = seed();
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (arg == "--detect") {
            opts.detect = true;
        } else if (arg == "--chaos-seed") {
            opts.chaos.seed = seed();
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-drop") {
            opts.chaos.dropRate = real(1.0);
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-dup") {
            opts.chaos.dupRate = real(1.0);
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-reorder") {
            opts.chaos.reorderRate = real(1.0);
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-corrupt") {
            opts.chaos.corruptRate = real(1.0);
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-evade") {
            opts.chaos.corruptEvadeCrc = real(1.0);
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-delay-us") {
            opts.chaos.delayRate = 1.0;
            opts.chaos.delayMax = Time::us(real(1e9));
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-nak") {
            opts.chaos.forgedNakRate = real(1.0);
            opts.chaosEnabled = true;
        } else if (arg == "--chaos-flap-us") {
            opts.chaos.flapDown = Time::us(real(1e9));
            opts.chaosEnabled = true;
        } else {
            std::fprintf(stderr, "unknown explore option: %s\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

int
runExplore(const std::vector<std::string>& args, const char* argv0)
{
    ExploreOptions opts;
    if (!parseExplore(args, opts)) {
        usage(argv0);
        return 2;
    }

    std::printf("device=%s (%s)  ops=%zu  qps=%zu  size=%u B  "
                "interval=%s  mode=%s  cack=%u  rnr=%s\n\n",
                opts.device.c_str(),
                rnic::modelName(opts.profile.model), opts.config.numOps,
                opts.config.numQps, opts.config.size,
                opts.config.interval.str().c_str(),
                odpModeName(opts.config.odpMode),
                opts.config.qpConfig.cack,
                opts.config.qpConfig.minRnrNakDelay.str().c_str());

    // One seed stream for the probe: trials draw disjoint seeds instead
    // of the old seed+t arithmetic.
    const exp::SeedStream seeds("odp_bench_cli/explore", opts.seed);

    Accumulator exec;
    std::uint64_t timeouts = 0;
    // Chaos seeds are derived per trial from their own stream so each
    // trial's fault schedule is disjoint yet replayable from the flags.
    const exp::SeedStream chaosSeeds("odp_bench_cli/chaos",
                                     opts.chaos.seed);

    for (std::size_t t = 0; t < opts.trials; ++t) {
        MicroBenchmark bench(opts.config, opts.profile,
                             seeds.trialSeed(0, t));
        std::unique_ptr<chaos::ChaosEngine> engine;
        std::unique_ptr<chaos::InvariantMonitor> monitor;
        if (opts.chaosEnabled) {
            chaos::ChaosConfig cfg = opts.chaos;
            cfg.seed = chaosSeeds.trialSeed(0, t);
            engine = std::make_unique<chaos::ChaosEngine>(
                bench.cluster().events(), cfg);
            engine->install(bench.cluster().fabric());
            monitor = std::make_unique<chaos::InvariantMonitor>(
                bench.cluster().fabric());
            // QPs only exist once run() has connected them; watch from
            // the hook it fires right before the first post.
            bench.setQpReadyHook([&bench, &monitor] {
                auto& client = bench.cluster().node(0).rnic();
                auto& server = bench.cluster().node(1).rnic();
                for (auto* qp : client.allQps())
                    monitor->watch(client, *qp);
                for (auto* qp : server.allQps())
                    monitor->watch(server, *qp);
            });
        }
        auto r = bench.run();
        exec.add(r.executionTime.toSec());
        timeouts += r.timeouts;

        std::printf("trial %zu: exec=%s  completed=%s  timeouts=%llu  "
                    "rexmits=%llu  rnr=%llu  seq_naks=%llu  "
                    "upd_failures=%llu  packets=%llu\n",
                    t, r.executionTime.str().c_str(),
                    r.completedAll ? "yes" : "NO",
                    static_cast<unsigned long long>(r.timeouts),
                    static_cast<unsigned long long>(r.retransmissions),
                    static_cast<unsigned long long>(r.rnrNaksReceived),
                    static_cast<unsigned long long>(r.seqNaksReceived),
                    static_cast<unsigned long long>(r.updateFailures),
                    static_cast<unsigned long long>(r.totalPackets));

        if (opts.chaosEnabled) {
            const auto& cs = engine->injector().stats();
            std::printf("  chaos: dropped=%llu dup=%llu reorder=%llu "
                        "corrupt=%llu delayed=%llu flap=%llu "
                        "forged_naks=%llu\n"
                        "  oracle: %s  trace_hash=%016llx\n",
                        static_cast<unsigned long long>(
                            cs.dropped + cs.flapDropped),
                        static_cast<unsigned long long>(cs.duplicated),
                        static_cast<unsigned long long>(cs.reordered),
                        static_cast<unsigned long long>(cs.corrupted),
                        static_cast<unsigned long long>(cs.delayed),
                        static_cast<unsigned long long>(cs.flapDropped),
                        static_cast<unsigned long long>(cs.naksForged),
                        monitor->clean()
                            ? "clean"
                            : monitor->report().c_str(),
                        static_cast<unsigned long long>(
                            monitor->traceHash()));
        }

        if (opts.trace && bench.packetCapture()) {
            std::printf("\n%s\n",
                        capture::formatWorkflow(*bench.packetCapture(),
                                                bench.client().lid())
                            .c_str());
        }
        if (opts.detect && bench.packetCapture()) {
            std::printf("%s",
                        formatReport(
                            detectDamming(*bench.packetCapture()))
                            .c_str());
            std::printf("%s\n",
                        formatReport(detectFlood(*bench.packetCapture()))
                            .c_str());
        }
    }

    if (opts.trials > 1) {
        std::printf("\n%zu trials: avg %.4f s (min %.4f, max %.4f), "
                    "%llu total timeouts\n",
                    opts.trials, exec.mean(), exec.min(), exec.max(),
                    static_cast<unsigned long long>(timeouts));
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc > 1 && std::strcmp(argv[1], "explore") == 0)
        return runExplore({argv + 2, argv + argc}, argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(argv[0]);
            return 0;
        }
    }

    exp::Registry registry;
    bench::registerAllBenches(registry);

    exp::RunContext ctx;
    std::vector<std::string> rest;
    if (!exp::parseCommonFlags(argc, argv, ctx, rest)) {
        usage(argv[0]);
        return 2;
    }

    bool list = false;
    std::string patterns;
    auto add_patterns = [&](const std::string& globs) {
        if (!patterns.empty())
            patterns += ',';
        patterns += globs;
    };
    for (std::size_t i = 0; i < rest.size(); ++i) {
        if (rest[i] == "--list") {
            list = true;
        } else if (rest[i] == "--filter") {
            if (i + 1 >= rest.size()) {
                std::fprintf(stderr, "missing value for --filter\n");
                return 2;
            }
            add_patterns(rest[++i]);
        } else if (!rest[i].empty() && rest[i][0] == '-') {
            std::fprintf(stderr, "unknown option: %s\n", rest[i].c_str());
            usage(argv[0]);
            return 2;
        } else {
            add_patterns(rest[i]);
        }
    }

    if (list) {
        for (const auto& bench : registry.benches())
            std::printf("%-24s %s\n", bench.name.c_str(),
                        bench.title.c_str());
        return 0;
    }

    const auto selection =
        registry.match(patterns.empty() ? "*" : patterns);
    if (selection.empty()) {
        std::fprintf(stderr, "no bench matches '%s' (try --list)\n",
                     patterns.c_str());
        return 2;
    }
    return exp::runBenches(registry, selection, ctx);
}
