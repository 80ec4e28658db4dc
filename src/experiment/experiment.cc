#include "experiment/experiment.hh"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "baselines/hl_governor.hh"
#include "baselines/hpm_governor.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "experiment/sweep.hh"
#include "hw/platform.hh"
#include "market/ppm_governor.hh"

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

std::unique_ptr<sim::Simulation>
make_simulation(const std::vector<workload::TaskSpec>& specs,
                const std::vector<double>& big_speedups,
                const RunParams& params)
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

    auto simulation = std::make_unique<sim::Simulation>(
        std::move(chip), specs,
        make_governor(params.policy, params.tdp, big_speedups,
                      params.online_speedup, 1, nullptr,
                      params.incremental),
        sim_cfg);
    if (params.extra_sink != nullptr)
        simulation->bus().add_sink(params.extra_sink);
    return simulation;
}

RunResult
run_specs(const std::vector<workload::TaskSpec>& specs,
          const std::vector<double>& big_speedups, const RunParams& params)
{
    const auto simulation = make_simulation(specs, big_speedups, params);
    RunResult result;
    const auto start = std::chrono::steady_clock::now();
    result.summary = simulation->run();
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.engine = simulation->engine_stats();
    if (params.trace)
        result.traces = simulation->recorder();
    return result;
}

RunResult
run_set(const workload::WorkloadSet& set, const RunParams& params)
{
    const auto specs = workload::instantiate(set, params.seed,
                                             params.priority,
                                             params.duration + 100 * kSecond);
    return run_specs(specs, workload::big_speedups(set), params);
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
    const double n = static_cast<double>(summaries.size());
    sim::RunSummary avg = summaries.front();
    sim::RunSummary::fields([&](sim::RunSummary::Merge merge, auto field) {
        auto& acc = avg.*field;
        using T = std::remove_reference_t<decltype(acc)>;
        constexpr bool per_task = std::is_same_v<T, std::vector<double>>;
        for (std::size_t i = 1; i < summaries.size(); ++i) {
            const T& x = summaries[i].*field;
            if constexpr (per_task) {
                PPM_ASSERT(x.size() == acc.size(),
                           "summaries must cover the same task count");
                for (std::size_t t = 0; t < acc.size(); ++t)
                    acc[t] += x[t];
            } else if (merge == sim::RunSummary::kPeak) {
                acc = std::max(acc, x);
            } else {
                acc += x;
            }
        }
        if constexpr (per_task) {
            for (double& v : acc)
                v /= n;
        } else if (merge != sim::RunSummary::kPeak) {
            acc = static_cast<T>(acc / n);
        }
    });
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
