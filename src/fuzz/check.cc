#include "fuzz/check.hh"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

#include "experiment/experiment.hh"
#include "fleet/fleet.hh"
#include "hw/power_model.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"

namespace ppm::fuzz {
namespace {

std::string
fmt_exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Streaming auditor of the market's per-round telemetry: checks that
 * every numeric field is finite and that the cluster allowances the
 * market hands its task agents sum back to the global allowance (the
 * distribute_allowance() telescoping).  Attached to the uninterrupted
 * PPM runs beside the StreamLog that difference() compares; it checks
 * each round as it arrives and stores none of them.
 */
class MarketAuditSink final : public metrics::TraceSink
{
  public:
    /**
     * @param check_budget Budget conservation only holds when every
     *        task agent is live: lifetime windows leave departed
     *        agents holding their stale last allowance, so the sum
     *        check is gated off for staggered scenarios.
     */
    explicit MarketAuditSink(bool check_budget)
        : check_budget_(check_budget)
    {
    }

    void sample(const std::string&, SimTime, double) override {}

    void event(const metrics::TraceEvent& e) override
    {
        if (e.type != "market_round")
            return;
        ++rounds_;
        double allowance = 0.0;
        double total_demand = 0.0;
        double task_sum = 0.0;
        bool saw_allowance = false;
        for (const auto& [key, value] : e.num) {
            if (!std::isfinite(value)) {
                fail("non-finite field " + key + " = " +
                     fmt_exact(value) + " at round " +
                     std::to_string(rounds_));
                return;
            }
            if (key == "allowance") {
                allowance = value;
                saw_allowance = true;
            } else if (key == "total_demand") {
                total_demand = value;
            } else if (key.compare(0, 4, "task") == 0 &&
                       key.size() > 10 &&
                       key.compare(key.size() - 10, 10,
                                   "_allowance") == 0) {
                task_sum += value;
                if (value < 0.0) {
                    fail("negative " + key + " = " +
                         fmt_exact(value) + " at round " +
                         std::to_string(rounds_));
                    return;
                }
            } else if ((key.compare(0, 4, "core") == 0 &&
                        key.size() > 6 &&
                        key.compare(key.size() - 6, 6, "_price") ==
                            0) &&
                       value < 0.0) {
                fail("negative " + key + " = " + fmt_exact(value) +
                     " at round " + std::to_string(rounds_));
                return;
            }
        }
        if (!saw_allowance || allowance < 0.0) {
            fail("round " + std::to_string(rounds_) +
                 " has no sane global allowance");
            return;
        }
        // Conservation: the distributed per-task allowances telescope
        // back to the global allowance whenever the market actually
        // distributed this round (it early-outs, keeping every agent's
        // last allowance, when no demand reached it).
        if (check_budget_ && total_demand > 0.0) {
            const double tol =
                1e-6 * std::max(1.0, std::abs(allowance));
            if (std::abs(task_sum - allowance) > tol) {
                fail("task allowances sum to " + fmt_exact(task_sum) +
                     " but global allowance is " +
                     fmt_exact(allowance) + " at round " +
                     std::to_string(rounds_));
            }
        }
    }

    const std::string& first_error() const { return error_; }
    bool ok() const { return error_.empty(); }

  private:
    void fail(const std::string& msg)
    {
        if (error_.empty())
            error_ = msg;
    }

    bool check_budget_;
    long rounds_ = 0;
    std::string error_;
};

std::unique_ptr<sim::Governor>
make_policy(const Scenario& sc, const std::string& policy,
            bool incremental)
{
    return experiment::make_governor(policy, sc.tdp > 0.0 ? sc.tdp : 1e9,
                                     big_speedups(sc), sc.online_speedup,
                                     1, nullptr, incremental);
}

sim::SimConfig
make_sim_config(const Scenario& sc, const hw::Chip& chip,
                bool macro_step)
{
    sim::SimConfig cfg;
    cfg.duration = sc.duration;
    cfg.warmup = sc.warmup;
    cfg.trace = sc.trace;
    cfg.trace_period = sc.trace_period;
    cfg.tdp_for_metrics = sc.tdp > 0.0 ? sc.tdp : 1e9;
    cfg.macro_step = macro_step;
    cfg.placement = placement(sc);
    cfg.lifetimes = lifetimes(sc);
    if (sc.has_faults) {
        cfg.faults = fault::FaultPlan::compile(
            sc.faults, chip.num_clusters(), chip.num_cores(),
            cfg.duration, cfg.tick);
    }
    return cfg;
}

/**
 * Kill-and-resume: snapshot `killed` (a Simulation or a Fleet) through
 * the real archive bytes, header, checksum and all, destroy it, and
 * load the bytes into a freshly built replacement from `make`.
 */
template <class Model, class Make>
std::unique_ptr<Model>
resume(std::unique_ptr<Model> killed, const Make& make)
{
    snap::Writer w;
    killed->save(w);
    killed.reset();
    std::unique_ptr<Model> resumed = make();
    snap::Reader r;
    const snap::LoadStatus st = r.open(w.finalize());
    PPM_ASSERT(st == snap::LoadStatus::kOk,
               "in-memory snapshot failed validation");
    resumed->load(r);
    PPM_ASSERT(r.remaining() == 0, "snapshot has trailing bytes after load");
    return resumed;
}

/**
 * Run the scenario on one chip under `policy`.  With `kill_at` > 0
 * the run is killed there and resumed in a fresh simulation: the
 * telemetry stream spans both halves and everything else comes from
 * the resumed one.  The market audit rides on uninterrupted PPM runs.
 * The traced series are taken out of the finished simulation (an
 * untraced run's recorder is empty).
 */
RunOutput
run_chip(const Scenario& sc, const std::string& policy, bool macro_step,
         bool incremental, SimTime kill_at = 0)
{
    RunOutput out;
    MarketAuditSink audit(lifetimes(sc).empty());
    const auto make = [&] {
        hw::Chip chip = make_chip(sc);
        const sim::SimConfig cfg = make_sim_config(sc, chip, macro_step);
        out.plan_events = cfg.faults.events().size();
        auto s = std::make_unique<sim::Simulation>(
            std::move(chip), make_specs(sc),
            make_policy(sc, policy, incremental), cfg);
        s->bus().add_sink(&out.stream);
        return s;
    };
    std::unique_ptr<sim::Simulation> simulation = make();
    if (kill_at > 0) {
        simulation->run_until(kill_at);
        simulation = resume(std::move(simulation), make);
    } else if (policy == "PPM") {
        simulation->bus().add_sink(&audit);
    }
    out.summary = simulation->run();
    out.traced = std::move(simulation->recorder());
    out.audit_error = audit.first_error();
    return out;
}

/**
 * The summary of a macro-stepped run of the scenario with no sink and
 * no trace: the only kind of run in which HL rests through its wakes
 * (sim::Simulation::rest_until_change()), so the one that checks the
 * rest.
 */
sim::RunSummary
run_quiet(const Scenario& sc, const std::string& policy)
{
    hw::Chip chip = make_chip(sc);
    sim::SimConfig cfg = make_sim_config(sc, chip, true);
    cfg.trace = false;
    sim::Simulation simulation(std::move(chip), make_specs(sc),
                               make_policy(sc, policy, sc.incremental),
                               cfg);
    return simulation.run();
}

/**
 * Streaming auditor of the fleet.* barrier telemetry: at every
 * barrier timestamp the per-chip budgets must sum back to the fleet
 * budget (the supervisor's settlement conserves the total; see
 * SupervisorMarket::settle).  Only attached to capped fleets --
 * uncapped fleets intentionally leave every chip at the sentinel
 * no-cap budget.
 */
class FleetAuditSink final : public metrics::TraceSink
{
  public:
    explicit FleetAuditSink(Watts total) : total_(total) {}

    void sample(const std::string& name, SimTime t, double v) override
    {
        static const std::string kPrefix = "fleet.chip";
        static const std::string kSuffix = ".budget_w";
        if (name.compare(0, kPrefix.size(), kPrefix) != 0 ||
            name.size() <= kSuffix.size() ||
            name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0)
            return;
        if (t != at_) {
            check();
            at_ = t;
            sum_ = 0.0;
            chips_ = 0;
        }
        sum_ += v;
        ++chips_;
    }

    void event(const metrics::TraceEvent&) override {}

    /** Audit the final pending barrier and return the first error. */
    std::string finish()
    {
        check();
        return error_;
    }

  private:
    void check()
    {
        if (chips_ == 0)
            return;
        const double tol = 1e-9 * std::max(1.0, total_);
        if (std::abs(sum_ - total_) > tol && error_.empty()) {
            error_ = "chip budgets sum to " + fmt_exact(sum_) +
                     " but the fleet budget is " + fmt_exact(total_) +
                     " at t=" + std::to_string(at_);
        }
    }

    Watts total_;
    SimTime at_ = -1;
    double sum_ = 0.0;
    int chips_ = 0;
    std::string error_;
};

/**
 * Build the `chips`-shard fleet configuration of the scenario.  Every
 * chip replicates the scenario's workload; chip governors are built
 * from their supervisor budget by experiment::make_governor, as in
 * make_policy, so a 1-chip fleet is configured bit-identically to the
 * plain PPM run.  With `fleet_faults`, the scenario's chip-level fault
 * classes are compiled into the settlement-barrier transition
 * schedule.
 */
fleet::FleetConfig
make_fleet_config(const Scenario& sc, int chips, int jobs,
                  bool incremental, bool fleet_faults)
{
    const bool capped = sc.tdp > 0.0;
    const Watts total =
        capped ? sc.tdp * static_cast<double>(chips) : 1e9;

    fleet::FleetConfig fc;
    fc.chips = chips;
    fc.epoch = 48 * kMillisecond;
    fc.supervisor.total_budget = total;
    fc.jobs = jobs;
    {
        const hw::Chip chip = make_chip(sc);
        fc.sim = make_sim_config(sc, chip, true);
    }
    if (fleet_faults)
        fc.fleet_faults = fault::FleetFaultPlan::compile(
            sc.faults, chips, fc.sim.duration, fc.epoch);
    for (int c = 0; c < chips; ++c) {
        fleet::ChipWorkload wl;
        wl.specs = make_specs(sc);
        wl.lifetimes = lifetimes(sc);
        wl.placement = placement(sc);
        fc.workloads.push_back(std::move(wl));
    }
    fc.make_chip = [&sc](int) { return make_chip(sc); };
    fc.make_governor = [&sc, incremental](int, Watts budget) {
        return experiment::make_governor("PPM", budget, big_speedups(sc),
                                         sc.online_speedup, 1, nullptr,
                                         incremental);
    };
    return fc;
}

/**
 * Run the scenario as a `chips`-chip PPM fleet on `jobs` threads.
 * With `kill_at` > 0 the fleet is killed at the first settlement
 * barrier at or after it and resumed as run_chip() resumes a chip.
 * The budget audit rides on uninterrupted, capped, healthy fleets: a
 * failed chip's budget is withdrawn from settlement and a degraded
 * chip's clamped, so the sum-to-total audit holds on no other.
 */
FleetOutput
run_fleet(const Scenario& sc, int chips, int jobs, bool incremental,
          bool fleet_faults, SimTime kill_at = 0)
{
    FleetOutput out;
    FleetAuditSink audit(sc.tdp * static_cast<double>(chips));
    const bool check_budget =
        kill_at == 0 && sc.tdp > 0.0 && chips > 1 && !fleet_faults;
    const auto make = [&] {
        auto f = std::make_unique<fleet::Fleet>(make_fleet_config(
            sc, chips, jobs, incremental, fleet_faults));
        f->bus().add_sink(&out.fleet.stream);
        f->shard(0).bus().add_sink(&out.chip0.stream);
        return f;
    };
    std::unique_ptr<fleet::Fleet> federation = make();
    if (kill_at > 0) {
        while (federation->now() < kill_at && federation->run_epoch()) {
        }
        federation = resume(std::move(federation), make);
    } else if (check_budget) {
        federation->bus().add_sink(&audit);
    }
    out.result = federation->run();
    out.fleet.summary = out.result.combined;
    out.chip0.summary = out.result.per_chip[0];
    out.chip0.traced = std::move(federation->shard(0).recorder());
    if (check_budget)
        out.budget_error = audit.finish();
    return out;
}

bool
fraction_ok(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0 + 1e-12;
}

void
check_summary_sanity(const Scenario& sc, const std::string& policy,
                     const RunOutput& run,
                     std::vector<Violation>& out)
{
    const sim::RunSummary& s = run.summary;
    auto bad = [&](const std::string& detail) {
        out.push_back({"summary-sanity", policy, detail});
    };

    bool shares_ok = true;
    sim::RunSummary::fields([&](sim::RunSummary::Merge merge, auto field) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(s.*field)>,
                                     double>) {
            if (merge == sim::RunSummary::kShare && !fraction_ok(s.*field))
                shares_ok = false;
        }
    });
    if (!shares_ok) {
        bad("a miss/duty fraction is outside [0, 1]");
        return;
    }
    if (!std::isfinite(s.avg_power) || s.avg_power < 0.0 ||
        !std::isfinite(s.avg_power_post_warmup) ||
        s.avg_power_post_warmup < 0.0 || !std::isfinite(s.energy) ||
        s.energy < 0.0) {
        bad("power/energy is negative or non-finite");
        return;
    }
    // energy integrates the whole run; avg_power is its time mean.
    const double dur_s =
        static_cast<double>(sc.duration) / static_cast<double>(kSecond);
    const double expect = s.avg_power * dur_s;
    if (std::abs(s.energy - expect) >
        1e-6 * std::max(1.0, std::abs(expect))) {
        bad("energy " + fmt_exact(s.energy) +
            " != avg_power * duration " + fmt_exact(expect));
    }
    if (!std::isfinite(s.peak_temp_c) || s.peak_temp_c <= 0.0 ||
        s.peak_temp_c > 500.0)
        bad("peak temperature " + fmt_exact(s.peak_temp_c) +
            " is implausible");
    if (s.migrations < 0 || s.vf_transitions < 0 ||
        s.thermal_cycles < 0)
        bad("a hardware counter went negative");
    if (s.task_below.size() != sc.tasks.size() ||
        s.task_outside.size() != sc.tasks.size()) {
        bad("per-task QoS vectors don't cover the task count");
        return;
    }
    for (std::size_t t = 0; t < s.task_below.size(); ++t) {
        if (!fraction_ok(s.task_below[t]) ||
            !fraction_ok(s.task_outside[t]) ||
            s.task_below[t] > s.task_outside[t] + 1e-12) {
            bad("task " + std::to_string(t) +
                " QoS fractions inconsistent (below " +
                fmt_exact(s.task_below[t]) + ", outside " +
                fmt_exact(s.task_outside[t]) + ")");
        }
    }
    if (s.safe_mode_seconds < 0.0 ||
        s.safe_mode_seconds > dur_s + 1e-9)
        bad("safe-mode time " + fmt_exact(s.safe_mode_seconds) +
            " exceeds the run length");
}

void
check_fault_counters(const Scenario& sc, const std::string& policy,
                     const RunOutput& run,
                     std::vector<Violation>& out)
{
    const sim::RunSummary& s = run.summary;
    auto bad = [&](const std::string& detail) {
        out.push_back({"fault-counters", policy, detail});
    };
    if (!sc.has_faults) {
        // Clean platform: any fault activity is machinery firing
        // without an injected cause.
        if (s.faults_injected != 0 || s.sensor_fallbacks != 0 ||
            s.fault_retries != 0 || s.safe_mode_entries != 0 ||
            s.watchdog_trips != 0 || s.safe_mode_seconds != 0.0 ||
            s.over_tdp_during_fault != 0.0) {
            bad("clean run reports fault activity (injected=" +
                std::to_string(s.faults_injected) + " fallbacks=" +
                std::to_string(s.sensor_fallbacks) + " retries=" +
                std::to_string(s.fault_retries) + " safe_entries=" +
                std::to_string(s.safe_mode_entries) + " watchdog=" +
                std::to_string(s.watchdog_trips) + ")");
        }
        return;
    }
    if (s.faults_injected < 0 ||
        static_cast<std::size_t>(s.faults_injected) > run.plan_events)
        bad("activated " + std::to_string(s.faults_injected) +
            " fault windows but the plan only schedules " +
            std::to_string(run.plan_events));
    if (s.sensor_fallbacks < 0 || s.fault_retries < 0 ||
        s.safe_mode_entries < 0 || s.watchdog_trips < 0)
        bad("a fault counter went negative");
}

void
check_tdp_duty(const Scenario& sc, const std::string& policy,
               const RunOutput& run, Watts chip_peak,
               std::vector<Violation>& out)
{
    // Only a loose bound is a true invariant: a TDP below the chip's
    // min-level floor is legitimately violated 100% of the time, and
    // aggressive caps ride the threshold band by design.  But with
    // the cap at or above the chip's peak sustained power, no
    // governor decision can push the chip meaningfully over it for
    // long -- a high post-warmup duty there is a governor bug.
    if (sc.has_faults || sc.tdp <= 0.0 || sc.tdp < 0.95 * chip_peak)
        return;
    if (run.summary.over_tdp_post_warmup > 0.5) {
        out.push_back(
            {"tdp-duty", policy,
             "TDP " + fmt_exact(sc.tdp) + " >= chip peak " +
                 fmt_exact(chip_peak) + " but over-TDP duty is " +
                 fmt_exact(run.summary.over_tdp_post_warmup)});
    }
}

} // namespace

std::string
difference(const RunOutput& a, const RunOutput& b)
{
    if (summary_fingerprint(a.summary) != summary_fingerprint(b.summary))
        return "summary fingerprints differ";
    if (std::string d = metrics::first_difference(a.stream, b.stream);
        !d.empty())
        return "telemetry streams differ at " + d;
    if (std::string d = metrics::first_difference(a.traced, b.traced);
        !d.empty())
        return "traced series differ at " + d;
    return {};
}

std::string
difference(const FleetOutput& a, const FleetOutput& b)
{
    if (std::string d = difference(a.fleet, b.fleet); !d.empty())
        return "fleet " + d;
    if (std::string d = difference(a.chip0, b.chip0); !d.empty())
        return "chip 0 " + d;
    return {};
}

std::vector<Violation>
check_scenario(const Scenario& sc)
{
    std::vector<Violation> violations;
    // A differential: `runs` must match bit for bit, and `diff`
    // (a difference() result) names where they did not.
    const auto expect_same = [&violations](const char* invariant,
                                           const std::string& policy,
                                           const std::string& diff,
                                           const char* runs) {
        if (!diff.empty())
            violations.push_back(
                {invariant, policy, diff + " between " + runs});
    };
    Watts chip_peak = 0.0;
    {
        const hw::Chip chip = make_chip(sc);
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            chip_peak += hw::PowerModel::cluster_max_power(chip, v);
    }

    // The macro-stepped PPM run at the scenario's clearing mode is the
    // reference the differentials below compare against: computed
    // once here, reused by each of them.
    RunOutput ppm;
    for (const char* policy : {"PPM", "HPM", "HL"}) {
        RunOutput macro = run_chip(sc, policy, true, sc.incremental);
        const RunOutput tick = run_chip(sc, policy, false, sc.incremental);
        expect_same("macro-vs-tick", policy, difference(macro, tick),
                    "macro-step and per-tick execution");
        // Every run here logs its bus stream, and HL rests only while
        // its bus is disabled, so it gets one sink-free run as well.
        if (std::string_view(policy) == "HL") {
            expect_same("macro-vs-tick", policy,
                        summary_fingerprint(run_quiet(sc, policy)) ==
                                summary_fingerprint(tick.summary)
                            ? ""
                            : "summary fingerprints differ",
                        "sink-free macro-step and per-tick execution");
        }
        if (!macro.audit_error.empty()) {
            violations.push_back(
                {"market-budget", policy, macro.audit_error});
        }
        check_summary_sanity(sc, policy, macro, violations);
        check_fault_counters(sc, policy, macro, violations);
        check_tdp_duty(sc, policy, macro, chip_peak, violations);
        if (std::string_view(policy) == "PPM")
            ppm = std::move(macro);
    }

    // Incremental differential: the active-set engine must replay the
    // full recompute bit for bit on EVERY scenario, skip counters in
    // the fingerprint included (the dirty bookkeeping is
    // mode-invariant).  A divergence here is a dirty-set bug: some
    // entry skipped a recompute whose inputs had actually changed.
    {
        const RunOutput other =
            run_chip(sc, "PPM", true, !sc.incremental);
        expect_same("incremental", "PPM",
                    sc.incremental ? difference(ppm, other)
                                   : difference(other, ppm),
                    "incremental and full clearing");
    }

    // Fleet-single differential: a 1-chip fleet wrapping the exact
    // PPM configuration must reproduce the plain run bit for bit
    // (run_until slicing at the epoch barriers provably changes
    // nothing, and a 1-chip settlement never moves the budget).
    expect_same("fleet-single", "PPM",
                difference(run_fleet(sc, 1, 1, sc.incremental, false).chip0,
                           ppm),
                "a 1-chip fleet and the plain simulation");

    // Federated invariants: jobs-count and repeat-run
    // byte-determinism, fleet budget conservation at every supervisor
    // barrier, and incremental clearing across epoch-barrier warm
    // starts (budget retargets between settlements).  The serial run
    // (faulted, under chip-level faults) is the reference of the
    // fleet snapshot differential.
    const int chips = sc.fleet_chips;
    FleetOutput serial;
    FleetOutput faulted;
    if (chips > 1) {
        serial = run_fleet(sc, chips, 1, sc.incremental, false);
        expect_same("fleet-jobs", "PPM",
                    difference(serial, run_fleet(sc, chips, 3,
                                                 sc.incremental, false)),
                    "jobs=1 and jobs=3");
        expect_same("fleet-determinism", "PPM",
                    difference(serial, run_fleet(sc, chips, 1,
                                                 sc.incremental, false)),
                    "two identical fleet runs");
        if (!serial.budget_error.empty()) {
            violations.push_back(
                {"fleet-budget", "PPM", serial.budget_error});
        }
        expect_same("fleet-incremental", "PPM",
                    difference(serial, run_fleet(sc, chips, 1,
                                                 !sc.incremental, false)),
                    "incremental and full clearing");
    }

    // Chip-level fault invariants: evacuation conservation (no task
    // is silently dropped by a chip failure), counter sanity, and
    // jobs-count byte-determinism of the faulted fleet.
    if (chips > 1 && sc.has_fleet_faults) {
        faulted = run_fleet(sc, chips, 1, sc.incremental, true);
        const fleet::FleetResult& fr = faulted.result;
        if (fr.evacuations != fr.evac_landed + fr.evac_pending_end) {
            violations.push_back(
                {"fleet-conservation", "PPM",
                 "evacuations " + std::to_string(fr.evacuations) +
                     " != landed " + std::to_string(fr.evac_landed) +
                     " + pending " +
                     std::to_string(fr.evac_pending_end)});
        }
        if (fr.chip_failures < 0 || fr.evacuations < 0 ||
            fr.evac_landed < 0 || fr.evac_pending_end < 0 ||
            fr.rejections < 0) {
            violations.push_back(
                {"fleet-conservation", "PPM",
                 "a fleet fault counter went negative"});
        }
        if (!sc.faults.chip_fail && fr.chip_failures != 0) {
            violations.push_back(
                {"fleet-conservation", "PPM",
                 "chip-fail disabled but " +
                     std::to_string(fr.chip_failures) +
                     " failures were applied"});
        }
        expect_same("fleet-fault-jobs", "PPM",
                    difference(faulted, run_fleet(sc, chips, 3,
                                                  sc.incremental, true)),
                    "jobs=1 and jobs=3 under chip faults");
    }

    // Snapshot differential: a kill at snapshot_at followed by a
    // restore into a fresh process image must replay the exact
    // trajectory, the telemetry streams concatenated across the kill.
    if (sc.snapshot_at > 0) {
        expect_same("snapshot-restore", "PPM",
                    difference(ppm, run_chip(sc, "PPM", true,
                                             sc.incremental,
                                             sc.snapshot_at)),
                    "the uninterrupted and the kill-and-resume run");
        if (chips > 1) {
            expect_same("fleet-snapshot-restore", "PPM",
                        difference(sc.has_fleet_faults ? faulted : serial,
                                   run_fleet(sc, chips, 1, sc.incremental,
                                             sc.has_fleet_faults,
                                             sc.snapshot_at)),
                        "the uninterrupted and the kill-and-resume run");
        }
    }
    return violations;
}

} // namespace ppm::fuzz
