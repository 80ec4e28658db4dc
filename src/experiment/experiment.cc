#include "experiment/experiment.hh"

#include <algorithm>
#include <chrono>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "experiment/sweep.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"
#include "workload/benchmarks.hh"

namespace ppm::experiment {

std::unique_ptr<sim::Governor>
make_governor(const std::string& policy, Watts tdp,
              const std::vector<double>& big_speedups,
              bool online_speedup, int, ThreadPool*, bool incremental)
{
    if (policy == "PPM") {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = tdp;
        cfg.market.w_th = market::derive_w_th(tdp);
        cfg.market.incremental = incremental;
        cfg.big_speedup = big_speedups;
        cfg.online_speedup = online_speedup;
        return std::make_unique<market::PpmGovernor>(cfg);
    }
    if (policy == "HPM") {
        baselines::HpmConfig cfg;
        cfg.tdp = tdp;
        return std::make_unique<baselines::HpmGovernor>(cfg);
    }
    if (policy == "HL") {
        baselines::HlConfig cfg;
        cfg.tdp = tdp;
        return std::make_unique<baselines::HlGovernor>(cfg);
    }
    fatal("unknown policy '%s' (use PPM, HPM or HL)", policy.c_str());
}

RunResult
run_specs(const std::vector<workload::TaskSpec>& specs,
          const std::vector<double>& big_speedups, const RunParams& params)
{
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
        make_governor(params.policy, params.tdp, big_speedups,
                      params.online_speedup, 1, nullptr,
                      params.incremental),
        sim_cfg);
    if (params.extra_sink != nullptr)
        simulation.bus().add_sink(params.extra_sink);
    RunResult result;
    const auto start = std::chrono::steady_clock::now();
    result.summary = simulation.run();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.engine = simulation.engine_stats();
    if (params.trace)
        result.traces = simulation.recorder();
    return result;
}

RunResult
run_set(const workload::WorkloadSet& set, const RunParams& params)
{
    const auto specs = workload::instantiate(set, params.seed,
                                             params.priority,
                                             params.duration + 100 * kSecond);
    std::vector<double> speedups;
    for (const auto& member : set.members) {
        speedups.push_back(
            workload::profile(member.bench, member.input).big_speedup);
    }
    return run_specs(specs, speedups, params);
}

std::uint64_t
cell_seed(std::uint64_t base, std::uint64_t stride, int index)
{
    PPM_ASSERT(stride >= 1, "seed stride must be >= 1");
    PPM_ASSERT(index >= 0, "seed index must be >= 0");
    // The index rides an odd-multiplier lane, which is injective mod
    // 2^64, so for a fixed (base, stride) every index maps to a
    // distinct mix64 input; mix64 is bijective, so the derived seeds
    // are distinct too -- no stride or index combination can alias
    // two cells onto one RNG stream.
    return mix64(base + mix64(stride) +
                 static_cast<std::uint64_t>(index) *
                     0x9e3779b97f4a7c15ULL);
}

sim::RunSummary
aggregate_summaries(const std::vector<sim::RunSummary>& summaries)
{
    PPM_ASSERT(!summaries.empty(), "need at least one summary");
    sim::RunSummary avg = summaries.front();
    for (std::size_t i = 1; i < summaries.size(); ++i) {
        const sim::RunSummary& s = summaries[i];
        PPM_ASSERT(s.task_below.size() == avg.task_below.size() &&
                       s.task_outside.size() == avg.task_outside.size(),
                   "summaries must cover the same task count");
        avg.any_below_miss += s.any_below_miss;
        avg.any_outside_miss += s.any_outside_miss;
        avg.avg_power += s.avg_power;
        avg.avg_power_post_warmup += s.avg_power_post_warmup;
        avg.energy += s.energy;
        avg.migrations += s.migrations;
        avg.vf_transitions += s.vf_transitions;
        avg.over_tdp_fraction += s.over_tdp_fraction;
        avg.over_tdp_post_warmup += s.over_tdp_post_warmup;
        // Worst seed sets the thermal envelope.
        avg.peak_temp_c = std::max(avg.peak_temp_c, s.peak_temp_c);
        avg.thermal_cycles += s.thermal_cycles;
        avg.faults_injected += s.faults_injected;
        avg.sensor_fallbacks += s.sensor_fallbacks;
        avg.fault_retries += s.fault_retries;
        avg.safe_mode_entries += s.safe_mode_entries;
        avg.watchdog_trips += s.watchdog_trips;
        avg.safe_mode_seconds += s.safe_mode_seconds;
        avg.over_tdp_during_fault += s.over_tdp_during_fault;
        avg.market_rounds += s.market_rounds;
        avg.market_task_slots += s.market_task_slots;
        avg.market_tasks_skipped += s.market_tasks_skipped;
        avg.market_core_slots += s.market_core_slots;
        avg.market_cores_skipped += s.market_cores_skipped;
        avg.market_rounds_early_exit += s.market_rounds_early_exit;
        for (std::size_t t = 0; t < avg.task_below.size(); ++t)
            avg.task_below[t] += s.task_below[t];
        for (std::size_t t = 0; t < avg.task_outside.size(); ++t)
            avg.task_outside[t] += s.task_outside[t];
    }
    const double n = static_cast<double>(summaries.size());
    avg.any_below_miss /= n;
    avg.any_outside_miss /= n;
    avg.avg_power /= n;
    avg.avg_power_post_warmup /= n;
    avg.energy /= n;
    avg.migrations = static_cast<long>(avg.migrations / n);
    avg.vf_transitions = static_cast<long>(avg.vf_transitions / n);
    avg.thermal_cycles = static_cast<long>(avg.thermal_cycles / n);
    avg.over_tdp_fraction /= n;
    avg.over_tdp_post_warmup /= n;
    avg.faults_injected = static_cast<long>(avg.faults_injected / n);
    avg.sensor_fallbacks = static_cast<long>(avg.sensor_fallbacks / n);
    avg.fault_retries = static_cast<long>(avg.fault_retries / n);
    avg.safe_mode_entries =
        static_cast<long>(avg.safe_mode_entries / n);
    avg.watchdog_trips = static_cast<long>(avg.watchdog_trips / n);
    avg.safe_mode_seconds /= n;
    avg.over_tdp_during_fault /= n;
    avg.market_rounds = static_cast<long>(avg.market_rounds / n);
    avg.market_task_slots = static_cast<long>(avg.market_task_slots / n);
    avg.market_tasks_skipped =
        static_cast<long>(avg.market_tasks_skipped / n);
    avg.market_core_slots = static_cast<long>(avg.market_core_slots / n);
    avg.market_cores_skipped =
        static_cast<long>(avg.market_cores_skipped / n);
    avg.market_rounds_early_exit =
        static_cast<long>(avg.market_rounds_early_exit / n);
    for (double& f : avg.task_below)
        f /= n;
    for (double& f : avg.task_outside)
        f /= n;
    return avg;
}

sim::RunSummary
run_set_avg(const workload::WorkloadSet& set, RunParams params,
            int n_seeds, int jobs)
{
    PPM_ASSERT(n_seeds >= 1, "need at least one seed");
    PPM_ASSERT(params.extra_sink == nullptr,
               "streaming sinks are single-run; seeds would interleave");
    std::vector<std::function<sim::RunSummary()>> cells;
    cells.reserve(static_cast<std::size_t>(n_seeds));
    for (int i = 0; i < n_seeds; ++i) {
        RunParams p = params;
        p.seed = cell_seed(params.seed, 100, i);
        cells.push_back(
            [&set, p]() { return run_set(set, p).summary; });
    }
    return aggregate_summaries(
        run_cells<sim::RunSummary>(std::move(cells), jobs));
}

} // namespace ppm::experiment
