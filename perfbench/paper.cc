/**
 * @file
 * The paper workloads: the nine Table-6 sets x PPM/HPM/HL x {uncapped,
 * 4 W TDP}, 300 simulated seconds each on one TC2 chip, built exactly
 * as experiment::run_set builds them (so every summary matches what
 * ppm_run prints), macro-stepped (paper-macro) or per-tick
 * (paper-tick).  The two engines are byte-identical by design, so one
 * reference table serves both.
 */

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "experiment/experiment.hh"
#include "fuzz/check.hh"
#include "hw/platform.hh"
#include "probe.hh"
#include "sim/simulation.hh"
#include "workload/benchmarks.hh"
#include "workload/sets.hh"

namespace perfbench {
namespace {

using ppm::SimTime;
using ppm::Watts;

constexpr SimTime kRunDuration = 300 * ppm::kSecond;
constexpr Watts kUncapped = 1e9;
constexpr Watts kTdp = 4.0;
const char* const kPolicies[] = {"PPM", "HPM", "HL"};

/** One paper run: a set, a policy, a TDP and the set's chip seed. */
struct Cell {
    const ppm::workload::WorkloadSet* set = nullptr;
    std::string policy;
    Watts tdp = kUncapped;
    std::uint64_t chip_seed = 0;
    std::string key;  ///< "<set>/<policy>/<uncapped|tdp4>".
};

std::vector<Cell>
paper_cells(std::uint64_t seed, const std::vector<std::string>& only_sets,
            const std::vector<Watts>& tdps)
{
    std::vector<Cell> cells;
    const auto& sets = ppm::workload::standard_workload_sets();
    for (std::size_t k = 0; k < sets.size(); ++k) {
        if (!only_sets.empty() &&
            std::find(only_sets.begin(), only_sets.end(), sets[k].name) ==
                only_sets.end())
            continue;
        // Every policy and TDP of a set sees the same task phases, as
        // in the paper's comparisons.
        const std::uint64_t chip_seed =
            ppm::experiment::cell_seed(seed, 100, static_cast<int>(k));
        for (Watts tdp : tdps) {
            for (const char* p : kPolicies) {
                Cell c;
                c.set = &sets[k];
                c.policy = p;
                c.tdp = tdp;
                c.chip_seed = chip_seed;
                c.key = sets[k].name + "/" + p + "/" +
                    (tdp < 1e8 ? "tdp4" : "uncapped");
                cells.push_back(std::move(c));
            }
        }
    }
    return cells;
}

/** What one run produced and cost. */
struct CellRun {
    std::string digest;          ///< FNV-1a of summary_fingerprint().
    double instantiate_s = 0.0;  ///< workload::instantiate.
    double construct_s = 0.0;    ///< Governor + Simulation.
    double run_s = 0.0;          ///< Inside Simulation::run.
    long ticks = 0;              ///< Simulated ticks.
    GovernorCalls calls;         ///< Probe totals (traced only).
    ppm::sim::ClearingStats clearing;
};

CellRun
run_cell(const Cell& c, bool macro_step, SimTime duration, bool probe,
         Tracer& tracer, int parent, long op)
{
    CellRun out;
    const int span = tracer.begin("run", parent, op);

    std::int64_t t0 = now_ns();
    const auto specs = ppm::workload::instantiate(
        *c.set, c.chip_seed, 1, duration + 100 * ppm::kSecond);
    std::vector<double> speedups;
    for (const auto& m : c.set->members)
        speedups.push_back(
            ppm::workload::profile(m.bench, m.input).big_speedup);
    std::int64_t t1 = now_ns();
    tracer.record("instantiate", t0, t1, span, op);
    out.instantiate_s = ns_to_s(t1 - t0);

    t0 = now_ns();
    std::unique_ptr<ppm::sim::Governor> gov =
        ppm::experiment::make_governor(c.policy, c.tdp, speedups);
    if (probe)
        gov = std::make_unique<GovernorProbe>(std::move(gov), &out.calls);
    ppm::sim::SimConfig cfg;
    cfg.duration = duration;
    cfg.tdp_for_metrics = c.tdp;
    cfg.macro_step = macro_step;
    ppm::sim::Simulation sim(ppm::hw::tc2_chip(), specs, std::move(gov),
                             cfg);
    t1 = now_ns();
    tracer.record("construct", t0, t1, span, op);
    out.construct_s = ns_to_s(t1 - t0);

    t0 = now_ns();
    const ppm::sim::RunSummary summary = sim.run();
    t1 = now_ns();
    tracer.record("simulate", t0, t1, span, op);
    tracer.end(span);
    out.run_s = ns_to_s(t1 - t0);
    out.ticks = static_cast<long>(duration / cfg.tick);
    out.clearing = sim.governor().clearing_stats();
    out.digest = hex64(fnv1a(ppm::fuzz::summary_fingerprint(summary)));
    return out;
}

int
policy_index(const std::string& p)
{
    for (int i = 0; i < 3; ++i) {
        if (p == kPolicies[i])
            return i;
    }
    return 0;
}

/** Per-policy sums behind the per-layer figures. */
struct PolicyTotals {
    double run_s = 0.0;
    long ticks = 0;
    long runs = 0;
    GovernorCalls calls;
};

std::string
lower(std::string s)
{
    for (char& ch : s)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return s;
}

} // namespace

Result
run_paper(const Options& opt, bool macro_step, Gate& gate, Tracer& tracer)
{
    Result res;
    const std::vector<Cell> cells =
        paper_cells(opt.seed, {}, {kUncapped, kTdp});
    Tracer untraced(false);
    pin_to_current_cpu();

    // Warm-up pass, untimed: the first set under every policy and TDP.
    for (std::size_t i = 0; i < 6; ++i)
        run_cell(cells[i], macro_step, kRunDuration, false, untraced, -1, -1);

    // Closed loop of whole sweeps (every cell once per sweep, so the
    // policy and set mix never depends on where time ran out); stop at
    // the sweep count whose end lands nearest the requested seconds, but
    // run at least two.  Each run and its set-up are timed as the fastest
    // of their sweeps: on a shared host, interference only ever slows
    // them down.
    std::vector<std::string> first_sweep;
    std::vector<double> best_run(cells.size()), best_setup(cells.size()),
        rss_samples;
    double plain_run_s = 0.0;
    int sweeps = 0;
    long op = 0;
    const std::int64_t start = now_ns();
    for (;;) {
        const double elapsed = ns_to_s(now_ns() - start);
        if (sweeps >= 2 && elapsed + elapsed / sweeps / 2.0 >= opt.seconds)
            break;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell& c = cells[i];
            restart_peak_rss();
            const CellRun r = run_cell(c, macro_step, kRunDuration, false,
                                       untraced, -1, op++);
            rss_samples.push_back(peak_rss_mib());
            const double setup = r.instantiate_s + r.construct_s;
            best_setup[i] =
                sweeps == 0 ? setup : std::min(best_setup[i], setup);
            best_run[i] =
                sweeps == 0 ? r.run_s : std::min(best_run[i], r.run_s);
            plain_run_s += r.run_s;
            if (sweeps == 0) {
                first_sweep.push_back(r.digest);
                res.op_digests.emplace_back(c.key, r.digest);
                gate.check_reference(c.key, r.digest);
            } else {
                gate.record(r.digest == first_sweep[i],
                            c.key + ": sweep " + std::to_string(sweeps) +
                                " digest " + r.digest + " != " +
                                first_sweep[i]);
            }
        }
        ++sweeps;
    }

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string& d : first_sweep)
        h = fnv1a(d, h);
    res.digest = hex64(h);

    double policy_sim_s[3] = {}, policy_best_s[3] = {};
    long policy_runs[3] = {};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int p = policy_index(cells[i].policy);
        policy_sim_s[p] += ppm::to_seconds(kRunDuration);
        policy_best_s[p] += best_run[i];
        policy_runs[p] += sweeps;
    }
    for (int p = 0; p < 3; ++p) {
        res.end_to_end["sim_rate_" + lower(kPolicies[p])] = {
            policy_sim_s[p] / policy_best_s[p], "sim-s/s", policy_runs[p]};
    }
    res.end_to_end["setup_s"] = {median(best_setup), "s",
                                 static_cast<long>(rss_samples.size())};
    res.end_to_end["peak_rss_mb"] = {geomean(rss_samples), "MiB",
                                     static_cast<long>(rss_samples.size())};
    res.notes.push_back("sweeps: " + std::to_string(sweeps) + " x " +
                        std::to_string(cells.size()) + " runs of " +
                        std::to_string(kRunDuration / ppm::kSecond) +
                        " simulated s");
    if (!opt.trace)
        return res;

    // Traced pass: the same runs again, each governor wrapped in the
    // probe and every call boundary spanned.  Every fingerprint must
    // match its untraced twin.
    PolicyTotals traced[3];
    std::vector<double> inst_samples, cons_samples;
    ppm::sim::ClearingStats market;
    long traced_op = 0;
    for (int s = 0; s < sweeps; ++s) {
        const int sweep_span = tracer.begin("sweep");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell& c = cells[i];
            const CellRun r = run_cell(c, macro_step, kRunDuration, true,
                                       tracer, sweep_span, traced_op++);
            gate.record(r.digest == first_sweep[i],
                        c.key + ": traced digest " + r.digest +
                            " != untraced " + first_sweep[i]);
            inst_samples.push_back(r.instantiate_s);
            cons_samples.push_back(r.construct_s);
            PolicyTotals& t = traced[policy_index(c.policy)];
            t.run_s += r.run_s;
            t.ticks += r.ticks;
            ++t.runs;
            t.calls.merge(r.calls);
            accumulate(market, r.clearing);
        }
        tracer.end(sweep_span);
    }

    auto& L = res.per_layer;
    double traced_run_s = 0.0, gov_s = 0.0;
    long ticks = 0, runs = 0;
    GovernorCalls all;
    for (int p = 0; p < 3; ++p) {
        const PolicyTotals& t = traced[p];
        traced_run_s += t.run_s;
        gov_s += ns_to_s(t.calls.total_ns());
        ticks += t.ticks;
        runs += t.runs;
        all.merge(t.calls);
        governor_metrics(L, lower(kPolicies[p]), t.calls, t.runs);
    }
    const double self_s = traced_run_s - gov_s;
    L["sim.run_s"] = {traced_run_s, "s", runs};
    L["sim.self_s"] = {self_s, "s", runs};
    L["sim.self_ns_per_tick"] = {self_s * 1e9 / static_cast<double>(ticks),
                                 "ns", ticks};
    engine_metrics(L, all, ticks, runs);
    market_metrics(L, market, traced[0].runs);
    L["setup.instantiate_s"] = {median(inst_samples), "s",
                                static_cast<long>(inst_samples.size())};
    L["setup.construct_s"] = {median(cons_samples), "s",
                              static_cast<long>(cons_samples.size())};
    L["trace.overhead"] = {traced_run_s / plain_run_s - 1.0, "ratio", runs};
    return res;
}

bool
gate_self_test(std::string* detail)
{
    // Three one-second-past-warmup runs; the reference is their own
    // digests with exactly one of them corrupted.
    const std::vector<Cell> cells = paper_cells(kDefaultSeed, {"l1"},
                                                {kUncapped});
    const SimTime duration = 3 * ppm::kSecond;
    Tracer off(false);
    std::map<std::string, std::string> ref;
    for (const Cell& c : cells)
        ref[c.key] = run_cell(c, true, duration, false, off, -1, -1).digest;
    ref[cells[1].key] = hex64(~fnv1a(ref[cells[1].key]));
    Gate gate(ref);
    for (const Cell& c : cells)
        gate.check_reference(
            c.key, run_cell(c, true, duration, false, off, -1, -1).digest);
    *detail = std::to_string(gate.failed()) + " of " +
        std::to_string(gate.attempted()) +
        " operations failed against one corrupt reference digest";
    return gate.attempted() == 3 && gate.failed() == 1;
}

} // namespace perfbench
