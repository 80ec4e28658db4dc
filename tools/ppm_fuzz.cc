/**
 * @file
 * Differential fuzz driver: generate seeded random scenarios, execute
 * each one every way the engine is supposed to be equivalent (every
 * policy, macro-step vs per-tick, incremental vs full-recompute
 * clearing, fleet shards on one worker vs a pool) and check the
 * global invariants (bit-identical summaries, telemetry streams and
 * traced series, compared as recorded rather than as rendered text;
 * market budget conservation, summary sanity, fault counters).  On a
 * violation the scenario is auto-shrunk and the minimized reproducer
 * written as a fixture file with a one-line replay command.
 *
 * Usage:
 *   ppm_fuzz [--count N] [--seed N] [--jobs N] [--no-shrink]
 *            [--max-violations K] [--fixture-dir DIR]
 *            [--json-out FILE] [--replay FILE] [--print-scenario N]
 *
 * --jobs N checks scenarios on N threads, the calling thread included
 * (default 0 = one per hardware thread; --jobs 1 checks them inline).
 *
 * Exit code: 0 = every scenario clean, 1 = violations found,
 * 2 = CLI error.
 *
 * Scenario seeds are derived as scenario_seed(--seed, index), so any
 * failing scenario can be regenerated from the campaign seed and its
 * index alone -- but the minimized fixture plus
 * `ppm_fuzz --replay FILE` is the preferred repro: it is immune to
 * generator changes.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.hh"
#include "experiment/sweep.hh"
#include "fuzz/check.hh"
#include "fuzz/scenario.hh"
#include "fuzz/shrink.hh"

namespace {

using namespace ppm;

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--count N] [--seed N] [--jobs N] [--no-shrink]\n"
        "          [--max-violations K] [--fixture-dir DIR]\n"
        "          [--json-out FILE] [--replay FILE]\n"
        "          [--print-scenario N]\n"
        "\n"
        "Generates N seeded scenarios and checks every equivalence\n"
        "the engine promises (macro==tick, incremental==full, fleet\n"
        "jobs=1==jobs=N, budget conservation, fault counters).  Violations are shrunk to\n"
        "minimal reproducers; --replay FILE re-checks one fixture.\n"
        "--jobs N checks scenarios on N threads, the calling thread\n"
        "included (0 = all hardware threads, the default).\n"
        "Exit: 0 clean, 1 violations, 2 usage error.\n",
        argv0);
    std::exit(2);
}

/**
 * In-flight scenario registry for crash triage: panic()/PPM_ASSERT
 * abort the process, losing which scenario was being simulated.  Each
 * thread parks its current scenario seed in a slot; the SIGABRT
 * handler dumps the live slots with write(2) (async-signal-safe) so
 * the seed is always recoverable from the crash log.
 */
constexpr int kMaxInflight = 64;
std::atomic<std::uint64_t> g_inflight[kMaxInflight];

class InflightGuard
{
  public:
    explicit InflightGuard(std::uint64_t seed)
    {
        for (int i = 0; i < kMaxInflight; ++i) {
            std::uint64_t expected = 0;
            // Seeds are parked +1 so seed 0 is representable.
            if (g_inflight[i].compare_exchange_strong(expected,
                                                      seed + 1)) {
                slot_ = i;
                return;
            }
        }
    }

    ~InflightGuard()
    {
        if (slot_ >= 0)
            g_inflight[slot_].store(0);
    }

  private:
    int slot_ = -1;
};

void
abort_handler(int)
{
    // Async-signal-safe: fixed buffers, write(2) only.
    const char* head = "\nppm_fuzz: aborted while checking scenario "
                       "seed(s):";
    ssize_t ignored = write(2, head, std::strlen(head));
    char buf[32];
    for (int i = 0; i < kMaxInflight; ++i) {
        std::uint64_t s = g_inflight[i].load();
        if (s == 0)
            continue;
        --s;
        int n = sizeof buf;
        buf[--n] = ' ';
        if (s == 0)
            buf[--n] = '0';
        while (s > 0 && n > 0) {
            buf[--n] = static_cast<char>('0' + s % 10);
            s /= 10;
        }
        ignored = write(2, buf + n, sizeof buf - static_cast<std::size_t>(n));
    }
    ignored = write(2, "\n", 1);
    (void)ignored;
    std::signal(SIGABRT, SIG_DFL);
}

/** Everything the sweep records about one violating scenario. */
struct Failure {
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    fuzz::Violation violation;  ///< First violation of the scenario.
    int n_violations = 0;
};

std::string
sanitize(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        out.push_back(
            (std::isalnum(static_cast<unsigned char>(c)) != 0)
                ? c
                : '-');
    }
    return out;
}

int
replay_fixture(const std::string& path, bool do_shrink)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "ppm_fuzz: cannot read '%s'\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    fuzz::Scenario sc;
    std::string error;
    if (!fuzz::parse_scenario(text.str(), &sc, &error)) {
        std::fprintf(stderr, "ppm_fuzz: bad scenario '%s': %s\n",
                     path.c_str(), error.c_str());
        return 2;
    }
    const std::vector<fuzz::Violation> violations =
        fuzz::check_scenario(sc);
    if (violations.empty()) {
        std::printf("replay %s: clean\n", path.c_str());
        return 0;
    }
    for (const fuzz::Violation& v : violations) {
        std::printf("replay %s: %s [%s] %s\n", path.c_str(),
                    v.invariant.c_str(), v.policy.c_str(),
                    v.detail.c_str());
    }
    if (do_shrink) {
        const fuzz::ShrinkResult r =
            fuzz::shrink(sc, violations.front());
        std::printf("shrunk reproducer (%d evaluations):\n%s",
                    r.evaluations,
                    fuzz::serialize(r.scenario).c_str());
    }
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    long count = 1000;
    std::uint64_t base_seed = 1;
    int jobs = 0;
    bool do_shrink = true;
    long max_violations = 5;
    std::string fixture_dir;
    std::string json_path;
    std::string replay_path;
    long print_index = -1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        auto next = [&]() -> const char* {
            if (has_inline)
                return inline_value.c_str();
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--count") {
            const char* text = next();
            count = cli::parse_int("ppm_fuzz", "--count", text);
            if (count < 1)
                cli::bad_arg("ppm_fuzz", "--count",
                             "expects an integer >= 1", text);
        } else if (arg == "--seed") {
            base_seed = cli::parse_u64("ppm_fuzz", "--seed", next());
        } else if (arg == "--jobs") {
            jobs = cli::parse_int_from("ppm_fuzz", "--jobs", next(), 0);
        } else if (arg == "--no-shrink") {
            do_shrink = false;
        } else if (arg == "--max-violations") {
            const char* text = next();
            max_violations =
                cli::parse_int("ppm_fuzz", "--max-violations", text);
            if (max_violations < 1)
                cli::bad_arg("ppm_fuzz", "--max-violations",
                             "expects an integer >= 1", text);
        } else if (arg == "--fixture-dir") {
            fixture_dir = next();
        } else if (arg == "--json-out") {
            json_path = next();
        } else if (arg == "--replay") {
            replay_path = next();
        } else if (arg == "--print-scenario") {
            const char* text = next();
            print_index =
                cli::parse_int("ppm_fuzz", "--print-scenario", text);
            if (print_index < 0)
                cli::bad_arg("ppm_fuzz", "--print-scenario",
                             "expects an index >= 0", text);
        } else {
            std::fprintf(stderr, "ppm_fuzz: unknown flag '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }

    if (print_index >= 0) {
        const fuzz::Scenario sc =
            fuzz::generate_scenario(fuzz::scenario_seed(
                base_seed, static_cast<std::uint64_t>(print_index)));
        std::fputs(fuzz::serialize(sc).c_str(), stdout);
        return 0;
    }
    if (!replay_path.empty())
        return replay_fixture(replay_path, do_shrink);

    std::signal(SIGABRT, abort_handler);

    // The sweep: one cell per scenario, fanned out over the sweep
    // runner's deterministic pool (results reduce in index order).
    std::atomic<long> done{0};
    std::vector<std::function<Failure()>> cells;
    cells.reserve(static_cast<std::size_t>(count));
    for (long i = 0; i < count; ++i) {
        const std::uint64_t index = static_cast<std::uint64_t>(i);
        cells.push_back([index, base_seed, count, &done]() {
            const std::uint64_t seed =
                fuzz::scenario_seed(base_seed, index);
            InflightGuard guard(seed);
            const fuzz::Scenario sc = fuzz::generate_scenario(seed);
            const std::vector<fuzz::Violation> violations =
                fuzz::check_scenario(sc);
            const long n = done.fetch_add(1) + 1;
            if (n % 500 == 0)
                std::fprintf(stderr, "ppm_fuzz: %ld/%ld scenarios\n",
                             n, count);
            Failure f;
            if (!violations.empty()) {
                f.seed = seed;
                f.index = index;
                f.violation = violations.front();
                f.n_violations =
                    static_cast<int>(violations.size());
            }
            return f;
        });
    }

    const auto start = std::chrono::steady_clock::now();
    const std::vector<Failure> results =
        experiment::run_cells<Failure>(std::move(cells), jobs);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    std::vector<Failure> failures;
    for (const Failure& f : results)
        if (f.n_violations > 0)
            failures.push_back(f);

    std::printf("ppm_fuzz: %ld scenarios, %zu violating, %.1f s "
                "(%.1f scenarios/s), seed %llu\n",
                count, failures.size(), wall,
                static_cast<double>(count) / std::max(wall, 1e-9),
                static_cast<unsigned long long>(base_seed));

    // Shrink and report the first K failures, serially.
    long reported = 0;
    for (const Failure& f : failures) {
        if (reported++ >= max_violations) {
            std::printf("... and %zu more violating scenarios "
                        "(raise --max-violations to see them)\n",
                        failures.size() -
                            static_cast<std::size_t>(reported - 1));
            break;
        }
        std::printf("violation: scenario %llu (seed %llu): %s [%s] "
                    "%s\n",
                    static_cast<unsigned long long>(f.index),
                    static_cast<unsigned long long>(f.seed),
                    f.violation.invariant.c_str(),
                    f.violation.policy.c_str(),
                    f.violation.detail.c_str());
        fuzz::Scenario sc = fuzz::generate_scenario(f.seed);
        if (do_shrink) {
            const fuzz::ShrinkResult r =
                fuzz::shrink(sc, f.violation);
            sc = r.scenario;
            std::printf("  shrunk in %d evaluations (tasks %zu, "
                        "duration %lld ms)\n",
                        r.evaluations, sc.tasks.size(),
                        static_cast<long long>(sc.duration /
                                               kMillisecond));
        }
        if (!fixture_dir.empty()) {
            // Create the directory on first use: a missing fixture
            // dir must not silently drop the minimized reproducer.
            std::error_code ec;
            std::filesystem::create_directories(fixture_dir, ec);
            const std::string name =
                sanitize(f.violation.invariant) + "-" +
                sanitize(f.violation.policy) + "-seed" +
                std::to_string(f.seed) + ".scenario";
            const std::string path = fixture_dir + "/" + name;
            std::ofstream out(path);
            out << fuzz::serialize(sc);
            out.close();
            if (!out) {
                std::fprintf(stderr,
                             "ppm_fuzz: cannot write fixture '%s'\n",
                             path.c_str());
            } else {
                std::printf("  fixture: %s\n  replay:  ppm_fuzz "
                            "--replay %s\n",
                            path.c_str(), path.c_str());
            }
        }
    }

    if (!json_path.empty()) {
        std::ofstream js(json_path);
        js << "{\n"
           << "  \"count\": " << count << ",\n"
           << "  \"violations\": " << failures.size() << ",\n"
           << "  \"seed\": " << base_seed << ",\n"
           << "  \"wall_seconds\": " << wall << ",\n"
           << "  \"scenarios_per_sec\": "
           << static_cast<double>(count) / std::max(wall, 1e-9)
           << "\n}\n";
        if (!js)
            std::fprintf(stderr,
                         "ppm_fuzz: cannot write json to '%s'\n",
                         json_path.c_str());
    }

    return failures.empty() ? 0 : 1;
}
