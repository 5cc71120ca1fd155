#include "exp/bench_main.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace ibsim {
namespace exp {

void
badNumber(const std::string& what, const std::string& text,
          const std::string& lo, const std::string& hi)
{
    std::fprintf(stderr,
                 "%s: invalid value '%s' (expected a number in [%s, %s])\n",
                 what.c_str(), text.c_str(), lo.c_str(), hi.c_str());
    std::exit(2);
}

std::string
formatBound(double bound)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", bound);
    return buf;
}

bool
parseCommonFlags(int argc, char** argv, RunContext& ctx,
                 std::vector<std::string>& rest)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            ctx.quick = true;
        } else if (arg == "--jobs") {
            const char* v = next();
            if (!v)
                return false;
            ctx.jobs = parseNumber<unsigned>(arg, v, 0, 4096);
        } else if (arg == "--seed") {
            const char* v = next();
            if (!v)
                return false;
            ctx.userSeed = parseNumber<std::uint64_t>(arg, v);
        } else if (arg == "--json") {
            const char* v = next();
            if (!v)
                return false;
            ctx.jsonPath = v;
        } else if (arg == "--csv") {
            const char* v = next();
            if (!v)
                return false;
            ctx.csvPath = v;
        } else {
            rest.push_back(arg);
        }
    }
    return true;
}

int
runBenches(const Registry& registry,
           const std::vector<const BenchInfo*>& selection,
           const RunContext& ctx)
{
    (void)registry;
    if (selection.empty()) {
        std::fprintf(stderr, "no benches selected\n");
        return 1;
    }
    // Opening a sink checks the --json/--csv outputs: an unwritable path
    // exits 2 here, before any trial, instead of dropping every row.
    ctx.sink(selection.front()->name);
    int failures = 0;
    for (const BenchInfo* bench : selection) {
        if (selection.size() > 1)
            std::printf("######## %s -- %s ########\n\n",
                        bench->name.c_str(), bench->title.c_str());
        const auto start = std::chrono::steady_clock::now();
        try {
            bench->fn(ctx);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench %s failed: %s\n",
                         bench->name.c_str(), e.what());
            ++failures;
            continue;
        }
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (selection.size() > 1)
            std::printf("-------- %s done in %.2f s --------\n\n",
                        bench->name.c_str(), sec);
    }
    return failures == 0 ? 0 : 1;
}

int
standaloneMain(int argc, char** argv, const Registry& registry,
               const std::string& bench_name)
{
    RunContext ctx;
    std::vector<std::string> rest;
    if (!parseCommonFlags(argc, argv, ctx, rest))
        return 2;
    for (const auto& arg : rest) {
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--quick] [--jobs N] [--seed N] "
                "[--json PATH] [--csv PATH]\n",
                argv[0]);
            return 0;
        }
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        return 2;
    }
    const BenchInfo* bench = registry.find(bench_name);
    if (!bench) {
        std::fprintf(stderr, "bench '%s' is not registered\n",
                     bench_name.c_str());
        return 1;
    }
    return runBenches(registry, {bench}, ctx);
}

} // namespace exp
} // namespace ibsim
