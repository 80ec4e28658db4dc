/**
 * @file
 * Command-line driver: run any policy on any workload set under any
 * TDP and print the run summary (optionally dumping time-series CSV).
 *
 * Usage:
 *   ppm_run [--policy PPM|HPM|HL] [--set l1..h3] [--tdp WATTS]
 *           [--seconds N] [--seed N] [--priority N] [--online]
 *           [--avg-seeds N] [--jobs N] [--trace FILE.csv]
 *           [--trace-format csv|jsonl] [--trace-out PATH] [--csv]
 *           [--per-tick] [--no-incremental] [--faults SPEC]
 *           [--fleet N] [--fleet-budget WATTS] [--fleet-epoch MS]
 *           [--snapshot-out PATH] [--snapshot-at MS]
 *           [--snapshot-every MS] [--snapshot-in PATH]
 *
 * --no-incremental disables PPM's incremental active-set clearing
 * (PpmConfig::incremental): every market entry is recomputed every
 * round instead of replaying memoized results for clean entries.
 * Output is bit-identical either way -- the flag exists to
 * cross-check that claim and to localize dirty-set bugs.
 *
 * --fleet N runs a federated fleet of N chips: each chip is an
 * independent economy running the selected workload set (chip 0 with
 * --seed, chip i with a mix64-derived per-chip seed), macro-stepped in
 * parallel between supervisor epochs; at each epoch barrier the
 * supervisor market reallocates the fleet power budget across chips
 * (--fleet-budget, default: --tdp x N when --tdp is set, uncapped
 * otherwise; --fleet-epoch sets the barrier period in milliseconds).
 * --jobs sets the shard-stepping pool's worker count.
 * The summary table aggregates the fleet (a 1-chip fleet prints
 * exactly the single-chip table); fleet output is byte-identical for
 * every --jobs value.  --trace/--trace-out/--avg-seeds are
 * single-chip features and are rejected in fleet mode.
 *
 * --faults SPEC enables deterministic fault injection.  SPEC is a
 * comma list of fault classes (sensor, dvfs, migration, offline, all)
 * and key=value tunables (seed=, rate=, duration_ms=, noise_w=,
 * delay_ms=, stale_ms=, staleness_ms=, retries=, backoff_ms=), e.g.
 * "--faults all,seed=7,rate=12".  The summary then carries the fault
 * accounting rows (faults injected, sensor fallbacks, retries,
 * safe-mode time, watchdog trips, over-TDP time during faults).
 * Fleet runs additionally accept the chip-scope classes chip-fail,
 * chip-degrade and chip-recover (knobs: chip_rate=, degrade=): whole
 * chips drop out of the supervisor economy at settlement barriers,
 * their tasks are evacuated to the cheapest surviving chips, and
 * recoveries return them.  The summary then carries chip_failures /
 * evacuations / evac_landed / evac_pending rows, and the invariant
 * evacuations == evac_landed + evac_pending holds on every run.
 *
 * Snapshots (crash-consistent save/restore):
 *  - --snapshot-out PATH --snapshot-at MS runs until simulated time
 *    MS, atomically writes a versioned checksummed snapshot and exits
 *    without finishing the run;
 *  - --snapshot-in PATH restores a snapshot (the OTHER flags must
 *    repeat the saving run's configuration verbatim -- workload,
 *    policy, seed, duration, faults, fleet shape) and continues to
 *    completion.  The restored run's summary and traces are
 *    byte-identical to the uninterrupted run: a CSV trace stream
 *    resumed from a snapshot omits the header row, so concatenating
 *    the pre-kill part with the restored part reproduces the full
 *    run's trace bytes exactly;
 *  - --snapshot-out PATH --snapshot-every MS saves periodically while
 *    running to completion (each save atomically replaces PATH).
 *  Corrupt, truncated or version-mismatched snapshots are rejected
 *  with a one-line diagnostic and exit code 2.  In fleet mode the
 *  snapshot covers the whole federation (supervisor, health, pending
 *  evacuations, every shard) and saves land on the next epoch
 *  barrier at or after the requested time.
 *
 * --avg-seeds N runs N seeds (seed, +100, +200, ...) and prints the
 * cross-seed aggregate (see experiment::aggregate_summaries); --jobs
 * caps the worker threads the seeds run on (0 = all hardware
 * threads), and the output is identical for every --jobs value.
 * --jobs only applies to --fleet and --avg-seeds N > 1 runs: a single
 * run (snapshot runs included) clears its market inline on one
 * thread, so it rejects --jobs with exit 2.
 *
 * Tracing comes in two flavours:
 *  - --trace FILE.csv buffers the sampled time series in memory and
 *    writes one wide CSV at the end (the historical behaviour);
 *  - --trace-out PATH streams every telemetry record -- including the
 *    per-round market telemetry (task bids, core prices, cluster
 *    freeze state, allowance, chip state) -- through a CSV or JSONL
 *    sink as the run executes, in constant memory.  --trace-format
 *    picks the sink (default: inferred from the extension, .csv ->
 *    csv, otherwise jsonl).  Summarize either stream with
 *    tools/trace_stats.  Every flag also accepts --flag=value.
 *
 * Examples:
 *   ppm_run --policy PPM --set h2 --tdp 4 --seconds 300
 *   ppm_run --policy HL --set l1 --trace hl_l1.csv
 *   ppm_run --set m2 --trace-format=jsonl --trace-out=m2.jsonl
 *   ppm_run --set h2 --avg-seeds 5 --jobs 4
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cli_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "experiment/experiment.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "hw/platform.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"
#include "workload/benchmarks.hh"

namespace {

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--policy PPM|HPM|HL] [--set l1..h3] [--tdp WATTS]\n"
        "          [--seconds N] [--seed N] [--priority N] [--online]\n"
        "          [--avg-seeds N] [--jobs N] [--trace FILE.csv]\n"
        "          [--trace-format csv|jsonl] [--trace-out PATH] [--csv]\n"
        "          [--per-tick] [--no-incremental] [--faults SPEC]\n"
        "          [--list-sets]\n"
        "          [--fleet N] [--fleet-budget WATTS] [--fleet-epoch MS]\n"
        "          [--snapshot-out PATH] [--snapshot-at MS]\n"
        "          [--snapshot-every MS] [--snapshot-in PATH]\n"
        "\n"
        "--no-incremental disables PPM's incremental active-set\n"
        "clearing and recomputes every market entry each round\n"
        "(results are bit-identical either way; use it to cross-check\n"
        "or to isolate dirty-set bugs).\n"
        "--fleet N federates N chips under a supervisor power market\n"
        "(--fleet-budget watts across the fleet, default --tdp x N;\n"
        "--fleet-epoch barrier period in ms; --jobs workers step the\n"
        "shards).\n"
        "--jobs N sets the worker count of --fleet and --avg-seeds runs\n"
        "(0 = all hardware threads; output is identical for any N); a\n"
        "single run has nothing to parallelize and rejects it.\n"
        "--per-tick disables the event-horizon macro-stepping engine\n"
        "and runs the historical tick-by-tick loop (results are\n"
        "bit-identical either way; use it to cross-check).\n"
        "--faults SPEC injects deterministic platform faults, e.g.\n"
        "--faults all,seed=7,rate=12 (classes: sensor dvfs migration\n"
        "offline all; keys: seed rate duration_ms noise_w delay_ms\n"
        "stale_ms staleness_ms retries backoff_ms; fleet-only chip\n"
        "classes: chip-fail chip-degrade chip-recover, keys chip_rate\n"
        "degrade).\n"
        "--snapshot-out PATH --snapshot-at MS saves a crash-consistent\n"
        "snapshot at simulated time MS and exits; --snapshot-in PATH\n"
        "restores one (repeat the saving run's flags) and continues\n"
        "byte-identically; --snapshot-every MS saves periodically\n"
        "while running to completion.\n",
        argv0);
    std::exit(2);
}

/** Exit-2 helpers with this tool's name baked in (see cli_util.hh:
 *  strict full-string parsing, range checking, finite-only doubles). */
[[noreturn]] void
bad_arg(const char* flag, const char* why, const char* got)
{
    ppm::cli::bad_arg("ppm_run", flag, why, got);
}

double
parse_number(const char* flag, const char* text)
{
    return ppm::cli::parse_number("ppm_run", flag, text);
}

long
parse_int(const char* flag, const char* text)
{
    return ppm::cli::parse_int("ppm_run", flag, text);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ppm;
    experiment::RunParams params;
    std::string set_name = "m2";
    std::string trace_path;
    std::string stream_path;
    std::string stream_format;
    bool csv_summary = false;
    int avg_seeds = 1;
    int jobs = 0;
    bool jobs_given = false;
    bool fleet_mode = false;
    int fleet_chips = 1;
    double fleet_budget = 0.0;  // 0 = derive from --tdp.
    SimTime fleet_epoch = 96 * kMillisecond;
    bool fleet_opts_given = false;
    std::string snap_out;
    std::string snap_in;
    SimTime snap_at = 0;     // 0 = no save-and-exit point.
    SimTime snap_every = 0;  // 0 = no periodic saves.

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--flag value" and "--flag=value".
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
        if (arg == "--policy") {
            params.policy = next();
            if (params.policy != "PPM" && params.policy != "HPM" &&
                params.policy != "HL") {
                bad_arg("--policy", "expects PPM, HPM or HL",
                        params.policy.c_str());
            }
        } else if (arg == "--set") {
            set_name = next();
        } else if (arg == "--tdp") {
            const char* text = next();
            params.tdp = parse_number("--tdp", text);
            if (params.tdp <= 0.0)
                bad_arg("--tdp", "expects a positive wattage", text);
        } else if (arg == "--seconds") {
            const char* text = next();
            const double seconds = parse_number("--seconds", text);
            if (seconds <= 0.0)
                bad_arg("--seconds", "expects a positive duration", text);
            params.duration = static_cast<SimTime>(seconds * kSecond);
        } else if (arg == "--seed") {
            const char* text = next();
            const long seed = parse_int("--seed", text);
            if (seed < 0)
                bad_arg("--seed", "expects a non-negative integer", text);
            params.seed = static_cast<std::uint64_t>(seed);
        } else if (arg == "--priority") {
            const char* text = next();
            const long prio = parse_int("--priority", text);
            if (prio < 1)
                bad_arg("--priority", "expects an integer >= 1", text);
            params.priority = static_cast<int>(prio);
        } else if (arg == "--online") {
            params.online_speedup = true;
        } else if (arg == "--per-tick") {
            params.macro_step = false;
        } else if (arg == "--no-incremental") {
            if (has_inline)
                bad_arg("--no-incremental", "takes no value",
                        inline_value.c_str());
            params.incremental = false;
        } else if (arg == "--faults") {
            const char* text = next();
            std::string error;
            if (!fault::parse_fault_spec(text, &params.faults, &error)) {
                std::fprintf(stderr, "ppm_run: bad --faults spec: %s\n",
                             error.c_str());
                return 2;
            }
        } else if (arg == "--avg-seeds") {
            const char* text = next();
            avg_seeds = static_cast<int>(parse_int("--avg-seeds", text));
            if (avg_seeds < 1)
                bad_arg("--avg-seeds", "expects an integer >= 1", text);
        } else if (arg == "--jobs") {
            const char* text = next();
            jobs = static_cast<int>(parse_int("--jobs", text));
            if (jobs < 0)
                bad_arg("--jobs", "expects an integer >= 0", text);
            jobs_given = true;
        } else if (arg == "--trace") {
            trace_path = next();
            params.trace = true;
        } else if (arg == "--trace-out") {
            stream_path = next();
        } else if (arg == "--trace-format") {
            stream_format = next();
            if (stream_format != "csv" && stream_format != "jsonl")
                usage(argv[0]);
        } else if (arg == "--fleet") {
            const char* text = next();
            const long n = parse_int("--fleet", text);
            if (n < 1)
                bad_arg("--fleet", "expects an integer >= 1", text);
            fleet_chips = static_cast<int>(n);
            fleet_mode = true;
        } else if (arg == "--fleet-budget") {
            const char* text = next();
            fleet_budget = parse_number("--fleet-budget", text);
            if (fleet_budget <= 0.0)
                bad_arg("--fleet-budget", "expects a positive wattage",
                        text);
            fleet_opts_given = true;
        } else if (arg == "--fleet-epoch") {
            const char* text = next();
            const long ms = parse_int("--fleet-epoch", text);
            if (ms < 1)
                bad_arg("--fleet-epoch",
                        "expects a positive epoch in milliseconds", text);
            fleet_epoch = ms * kMillisecond;
            fleet_opts_given = true;
        } else if (arg == "--snapshot-out") {
            snap_out = next();
        } else if (arg == "--snapshot-in") {
            snap_in = next();
        } else if (arg == "--snapshot-at") {
            const char* text = next();
            const long ms = parse_int("--snapshot-at", text);
            if (ms < 1)
                bad_arg("--snapshot-at",
                        "expects a positive time in milliseconds", text);
            snap_at = ms * kMillisecond;
        } else if (arg == "--snapshot-every") {
            const char* text = next();
            const long ms = parse_int("--snapshot-every", text);
            if (ms < 1)
                bad_arg("--snapshot-every",
                        "expects a positive period in milliseconds",
                        text);
            snap_every = ms * kMillisecond;
        } else if (arg == "--csv") {
            csv_summary = true;
        } else if (arg == "--list-sets") {
            Table sets({"set", "class", "intensity", "members"});
            for (const auto& s : workload::standard_workload_sets()) {
                std::string members;
                for (const auto& m : s.members) {
                    if (!members.empty())
                        members += " ";
                    members += workload::profile(m.bench, m.input).name;
                }
                sets.add_row(
                    {s.name,
                     workload::intensity_class_name(s.expected_class),
                     fmt_double(workload::intensity(s, 3000.0), 2),
                     members});
            }
            sets.print(std::cout);
            return 0;
        } else {
            std::fprintf(stderr, "ppm_run: unknown flag '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }

    if (jobs_given && !fleet_mode && avg_seeds <= 1) {
        std::fprintf(stderr, "ppm_run: --jobs needs --fleet N or "
                             "--avg-seeds N > 1 (a single run has "
                             "nothing to parallelize)\n");
        return 2;
    }
    const auto& set = workload::workload_set(set_name);
    if (avg_seeds > 1 && !trace_path.empty())
        fatal("--trace records one run; drop it or --avg-seeds");
    if (avg_seeds > 1 && !stream_path.empty())
        fatal("--trace-out streams one run; drop it or --avg-seeds");
    if (stream_path.empty() && !stream_format.empty())
        fatal("--trace-format needs --trace-out PATH");
    if (!fleet_mode && fleet_opts_given)
        fatal("--fleet-budget/--fleet-epoch need --fleet N");
    if (params.faults.any_fleet() && !fleet_mode)
        fatal("chip-scope fault classes (chip-fail/chip-degrade) need "
              "--fleet N");
    const bool snapshotting =
        snap_at > 0 || snap_every > 0 || !snap_in.empty();
    if ((snap_at > 0 || snap_every > 0) && snap_out.empty())
        fatal("--snapshot-at/--snapshot-every need --snapshot-out PATH");
    if (!snap_out.empty() && snap_at == 0 && snap_every == 0)
        fatal("--snapshot-out needs --snapshot-at or --snapshot-every");
    if (snap_at > 0 && snap_every > 0)
        fatal("--snapshot-at and --snapshot-every are exclusive");
    if (snap_at > 0 && snap_at >= params.duration)
        fatal("--snapshot-at must fall before the run end (--seconds)");
    if (snapshotting && avg_seeds > 1)
        fatal("snapshots cover one run; drop --avg-seeds");
    if (snap_at > 0 && !trace_path.empty())
        fatal("--snapshot-at exits before the wide CSV is written; put "
              "--trace on the restoring run instead");
    if (fleet_mode) {
        // Per-shard traces would need per-chip output paths; the
        // fleet-level series live on Fleet::bus() instead.
        if (!trace_path.empty() || !stream_path.empty())
            fatal("tracing is single-chip; drop --trace/--trace-out "
                  "or --fleet");
        if (avg_seeds > 1)
            fatal("--avg-seeds is single-chip; drop it or --fleet");
    }

    // Streaming sink: CSV or JSONL, inferred from the extension when
    // --trace-format is absent (.csv -> csv, anything else -> jsonl).
    std::ofstream stream_out;
    std::unique_ptr<metrics::TraceSink> stream_sink;
    if (!stream_path.empty()) {
        if (stream_format.empty()) {
            const bool csv_ext = stream_path.size() >= 4 &&
                stream_path.compare(stream_path.size() - 4, 4, ".csv")
                    == 0;
            stream_format = csv_ext ? "csv" : "jsonl";
        }
        stream_out.open(stream_path);
        if (!stream_out)
            fatal("cannot write trace file '%s'", stream_path.c_str());
        // A restored run resumes an existing trace stream: suppress
        // the header so pre-kill bytes + restored bytes == full run.
        if (stream_format == "csv")
            stream_sink = std::make_unique<metrics::CsvStreamSink>(
                stream_out, /*write_header=*/snap_in.empty());
        else
            stream_sink =
                std::make_unique<metrics::JsonlSink>(stream_out);
        params.extra_sink = stream_sink.get();
        params.trace = true; // enable periodic sampling too
    }

    // Validate the wide-CSV destination before spending simulated
    // time on a run whose trace could not be written.
    std::ofstream trace_out;
    if (!trace_path.empty()) {
        trace_out.open(trace_path);
        if (!trace_out) {
            std::fprintf(stderr, "ppm_run: cannot write trace file '%s'\n",
                         trace_path.c_str());
            return 2;
        }
    }

    // Restore a snapshot into `target` (Simulation or Fleet), or exit
    // 2 with a one-line diagnostic naming the failure (truncated, bad
    // magic, version mismatch, checksum mismatch, trailing bytes).
    auto restore_or_die = [&snap_in](auto& target) {
        snap::Reader r;
        const snap::LoadStatus st = snap::read_file(snap_in, &r);
        if (st != snap::LoadStatus::kOk) {
            std::fprintf(stderr,
                         "ppm_run: cannot restore snapshot '%s': %s\n",
                         snap_in.c_str(), snap::load_status_name(st));
            std::exit(2);
        }
        target.load(r);
        if (r.remaining() != 0) {
            std::fprintf(
                stderr,
                "ppm_run: cannot restore snapshot '%s': %zu trailing "
                "payload bytes (flags differ from the saving run?)\n",
                snap_in.c_str(), r.remaining());
            std::exit(2);
        }
    };

    // Save `source` atomically to --snapshot-out; accounting rides the
    // bus as snapshot.* counters (excluded from saved state, so a
    // restored run never inherits them).
    auto save_or_die = [&snap_out](auto& source, metrics::TraceBus& bus) {
        snap::Writer w;
        const auto t0 = std::chrono::steady_clock::now();
        source.save(w);
        std::string error;
        if (!snap::write_file(snap_out, w, &error)) {
            std::fprintf(stderr, "ppm_run: snapshot save failed: %s\n",
                         error.c_str());
            std::exit(1);
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        bus.count("snapshot.saves");
        bus.count("snapshot.bytes", static_cast<long>(w.size()));
        bus.count("snapshot.ms", static_cast<long>(ms + 0.5));
        std::fprintf(stderr, "snapshot: %zu bytes to %s (%.1f ms)\n",
                     w.size(), snap_out.c_str(), ms);
    };

    // --snapshot-at exit: the run is intentionally unfinished; flush
    // any trace stream so the pre-kill bytes are complete on disk.
    auto snapshot_exit = [&]() -> int {
        int code = 0;
        if (!stream_path.empty()) {
            stream_sink->flush();
            stream_out.close();
            if (stream_sink->failed() || !stream_out) {
                std::fprintf(stderr,
                             "ppm_run: error streaming trace to '%s'\n",
                             stream_path.c_str());
                code = 1;
            }
        }
        std::printf("snapshot written to %s\n", snap_out.c_str());
        return code;
    };

    sim::RunSummary s;
    fleet::FleetResult fleet_res;
    double wall_seconds = 0.0;
    long fleet_epochs = 0;
    double fleet_eff_budget = 0.0;
    if (fleet_mode) {
        // Fleet: N chips, each running `set` with a chip-derived seed
        // (chip 0 uses --seed verbatim, so a 1-chip fleet byte-matches
        // the plain single-run path), federated under the supervisor
        // power market.
        std::vector<double> speedups;
        for (const auto& member : set.members) {
            speedups.push_back(
                workload::profile(member.bench, member.input)
                    .big_speedup);
        }

        fleet::FleetConfig fc;
        fc.chips = fleet_chips;
        fc.epoch = fleet_epoch;
        fleet_eff_budget = fleet_budget > 0.0
            ? fleet_budget
            : (params.tdp < 1e8 ? params.tdp * fleet_chips : 1e9);
        fc.supervisor.total_budget = fleet_eff_budget;
        fc.sim.duration = params.duration;
        fc.sim.tdp_for_metrics = params.tdp;
        fc.sim.macro_step = params.macro_step;
        if (params.faults.any()) {
            const hw::Chip proto = hw::tc2_chip();
            fc.sim.faults = fault::FaultPlan::compile(
                params.faults, proto.num_clusters(), proto.num_cores(),
                fc.sim.duration, fc.sim.tick);
        }
        if (params.faults.any_fleet()) {
            fc.fleet_faults = fault::FleetFaultPlan::compile(
                params.faults, fleet_chips, fc.sim.duration, fc.epoch);
        }
        for (int c = 0; c < fleet_chips; ++c) {
            const std::uint64_t chip_seed = c == 0
                ? params.seed
                : experiment::cell_seed(params.seed, 777, c);
            fleet::ChipWorkload wl;
            wl.specs = workload::instantiate(
                set, chip_seed, params.priority,
                params.duration + 100 * kSecond);
            fc.workloads.push_back(std::move(wl));
        }
        // Absent --jobs (or --jobs 1) the shards step inline, which
        // produces the same bytes.
        fc.jobs = jobs_given ? jobs : 1;
        fc.make_chip = [](int) { return hw::tc2_chip(); };
        fc.make_governor = [&params, &speedups](int, Watts budget) {
            return experiment::make_governor(params.policy, budget,
                                             speedups,
                                             params.online_speedup, 1,
                                             nullptr, params.incremental);
        };
        const auto start = std::chrono::steady_clock::now();
        fleet::Fleet fleet(std::move(fc));
        if (!snap_in.empty())
            restore_or_die(fleet);
        if (snap_at > 0) {
            // Fleet state is only consistent at epoch barriers: save
            // at the first barrier at or after the requested time.
            while (fleet.now() < snap_at && fleet.run_epoch()) {
            }
            save_or_die(fleet, fleet.bus());
            return snapshot_exit();
        }
        if (snap_every > 0) {
            SimTime due =
                (fleet.now() / snap_every + 1) * snap_every;
            while (fleet.now() < params.duration && fleet.run_epoch()) {
                if (fleet.now() >= due) {
                    save_or_die(fleet, fleet.bus());
                    due = (fleet.now() / snap_every + 1) * snap_every;
                }
            }
        }
        fleet_res = fleet.run();
        wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        s = fleet_res.combined;
        fleet_epochs = fleet_res.supervisor_epochs;
    } else if (avg_seeds > 1) {
        const auto start = std::chrono::steady_clock::now();
        s = experiment::run_set_avg(set, params, avg_seeds, jobs);
        wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    } else if (snapshotting) {
        // Snapshot runs need mid-run control of the Simulation, so
        // build it here exactly as experiment::run_specs() does; the
        // restore path rebuilds this identical object from the same
        // flags and then overwrites its dynamic state from the file.
        const auto specs = workload::instantiate(
            set, params.seed, params.priority,
            params.duration + 100 * kSecond);
        std::vector<double> speedups;
        for (const auto& member : set.members) {
            speedups.push_back(
                workload::profile(member.bench, member.input)
                    .big_speedup);
        }
        sim::SimConfig sim_cfg;
        sim_cfg.duration = params.duration;
        sim_cfg.trace = params.trace;
        sim_cfg.tdp_for_metrics = params.tdp;
        sim_cfg.macro_step = params.macro_step;
        hw::Chip chip = hw::tc2_chip();
        if (params.faults.any()) {
            sim_cfg.faults = fault::FaultPlan::compile(
                params.faults, chip.num_clusters(), chip.num_cores(),
                sim_cfg.duration, sim_cfg.tick);
        }
        sim::Simulation simulation(
            std::move(chip), specs,
            experiment::make_governor(
                params.policy, params.tdp, speedups,
                params.online_speedup, 1, nullptr, params.incremental),
            sim_cfg);
        if (params.extra_sink != nullptr)
            simulation.bus().add_sink(params.extra_sink);
        if (!snap_in.empty())
            restore_or_die(simulation);
        const auto start = std::chrono::steady_clock::now();
        if (snap_at > 0) {
            simulation.run_until(snap_at);
            save_or_die(simulation, simulation.bus());
            return snapshot_exit();
        }
        if (snap_every > 0) {
            for (SimTime due =
                     (simulation.now() / snap_every + 1) * snap_every;
                 due < params.duration; due += snap_every) {
                simulation.run_until(due);
                save_or_die(simulation, simulation.bus());
            }
        }
        simulation.run_until(params.duration);
        s = simulation.finish();
        wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        if (!trace_path.empty())
            simulation.recorder().write_csv(trace_out);
    } else {
        const experiment::RunResult result =
            experiment::run_set(set, params);
        s = result.summary;
        wall_seconds = result.wall_seconds;
        if (!trace_path.empty())
            result.traces.write_csv(trace_out);
    }

    Table table({"metric", "value"});
    table.add_row({"policy", s.governor});
    table.add_row({"workload", set.name});
    table.add_row({"duration_s",
                   fmt_double(to_seconds(params.duration), 0)});
    table.add_row({"seed", std::to_string(params.seed)});
    if (avg_seeds > 1)
        table.add_row({"seeds_averaged", std::to_string(avg_seeds)});
    table.add_row({"tdp_w", params.tdp < 1e8 ? fmt_double(params.tdp, 1)
                                             : "none"});
    table.add_row({"qos_miss_any", fmt_percent(s.any_below_miss)});
    table.add_row({"qos_outside_any", fmt_percent(s.any_outside_miss)});
    table.add_row({"avg_power_w", fmt_double(s.avg_power, 3)});
    table.add_row({"energy_j", fmt_double(s.energy, 1)});
    table.add_row({"avg_power_post_warmup_w",
                   fmt_double(s.avg_power_post_warmup, 3)});
    table.add_row({"migrations", std::to_string(s.migrations)});
    table.add_row({"vf_transitions", std::to_string(s.vf_transitions)});
    table.add_row({"time_over_tdp", fmt_percent(s.over_tdp_fraction)});
    table.add_row({"time_over_tdp_post_warmup",
                   fmt_percent(s.over_tdp_post_warmup)});
    table.add_row({"peak_temp_c", fmt_double(s.peak_temp_c, 1)});
    // Market-only rows (absent for the baselines).  The skip counters
    // come from mode-invariant bookkeeping, so this block is
    // byte-identical with --no-incremental -- a near-zero skip rate
    // on a steady workload flags a degraded active set.
    if (s.market_rounds > 0) {
        table.add_row({"market_rounds", std::to_string(s.market_rounds)});
        table.add_row(
            {"market_task_skip_rate",
             fmt_percent(s.market_task_slots > 0
                             ? static_cast<double>(s.market_tasks_skipped) /
                                   static_cast<double>(s.market_task_slots)
                             : 0.0)});
        table.add_row(
            {"market_core_skip_rate",
             fmt_percent(s.market_core_slots > 0
                             ? static_cast<double>(s.market_cores_skipped) /
                                   static_cast<double>(s.market_core_slots)
                             : 0.0)});
        table.add_row({"market_rounds_early_exit",
                       std::to_string(s.market_rounds_early_exit)});
    }
    // Fleet-only rows ride below the standard block so a 1-chip fleet
    // prints exactly the single-chip table (byte-comparable).
    if (fleet_mode && fleet_chips > 1) {
        table.add_row({"chips", std::to_string(fleet_chips)});
        table.add_row({"fleet_budget_w",
                       fleet_eff_budget < 1e8
                           ? fmt_double(fleet_eff_budget, 1)
                           : "none"});
        table.add_row({"fleet_epoch_ms",
                       fmt_double(to_seconds(fleet_epoch) * 1e3, 0)});
        table.add_row({"supervisor_epochs",
                       std::to_string(fleet_epochs)});
    }
    // Chip-scope fault accounting; the conservation invariant
    // evacuations == evac_landed + evac_pending holds on every run.
    if (fleet_mode && params.faults.any_fleet()) {
        table.add_row({"chip_failures",
                       std::to_string(fleet_res.chip_failures)});
        table.add_row({"chip_recoveries",
                       std::to_string(fleet_res.chip_recoveries)});
        table.add_row({"evacuations",
                       std::to_string(fleet_res.evacuations)});
        table.add_row({"evac_landed",
                       std::to_string(fleet_res.evac_landed)});
        table.add_row({"evac_pending",
                       std::to_string(fleet_res.evac_pending_end)});
        table.add_row({"fleet_rejections",
                       std::to_string(fleet_res.rejections)});
        table.add_row({"all_chips_failed",
                       fleet_res.all_chips_failed ? "yes" : "no"});
    }
    if (fleet_mode && fleet_res.fleet_watchdog_trips > 0) {
        table.add_row({"fleet_watchdog_trips",
                       std::to_string(fleet_res.fleet_watchdog_trips)});
    }
    if (params.faults.any()) {
        table.add_row({"faults_injected",
                       std::to_string(s.faults_injected)});
        table.add_row({"sensor_fallbacks",
                       std::to_string(s.sensor_fallbacks)});
        table.add_row({"fault_retries", std::to_string(s.fault_retries)});
        table.add_row({"safe_mode_entries",
                       std::to_string(s.safe_mode_entries)});
        table.add_row({"safe_mode_s",
                       fmt_double(s.safe_mode_seconds, 3)});
        table.add_row({"watchdog_trips",
                       std::to_string(s.watchdog_trips)});
        table.add_row({"time_over_tdp_in_fault",
                       fmt_percent(s.over_tdp_during_fault)});
    }
    if (csv_summary)
        table.print_csv(std::cout);
    else
        table.print(std::cout);

    // Wall clock is machine-dependent; keep it off the summary table
    // (stdout stays comparable across hosts and --jobs values).
    std::fprintf(stderr, "wall-clock: %.2f s\n", wall_seconds);
    if (fleet_res.all_chips_failed) {
        std::fprintf(stderr,
                     "ppm_run: warning: the whole fleet was failed at "
                     "once during this run (results cover the outage)\n");
    }

    int exit_code = 0;
    if (!trace_path.empty()) {
        trace_out.flush();
        if (!trace_out) {
            std::fprintf(stderr,
                         "ppm_run: error writing trace file '%s'\n",
                         trace_path.c_str());
            exit_code = 1;
        } else {
            std::printf("trace written to %s\n", trace_path.c_str());
        }
    }
    if (!stream_path.empty()) {
        stream_sink->flush();
        stream_out.close();
        if (stream_sink->failed() || !stream_out) {
            std::fprintf(stderr,
                         "ppm_run: error streaming trace to '%s'\n",
                         stream_path.c_str());
            exit_code = 1;
        } else {
            std::printf("%s trace streamed to %s\n",
                        stream_format.c_str(), stream_path.c_str());
        }
    }
    return exit_code;
}
