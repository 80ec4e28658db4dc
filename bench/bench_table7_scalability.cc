/**
 * @file
 * Table 7: computational overhead of the framework for growing
 * numbers of clusters V, cores per cluster C, and tasks per core T.
 *
 * Mirrors the paper's methodology: a synthetic chip with maximum
 * supplies spread over [350, 3000] PU, random task demands in
 * [10, 50] PU, and the measurement of (a) one supply-demand market
 * round for the whole chip and (b) the LBT speculation performed by
 * one constrained core (the per-core share of the distributed
 * computation, which is what the paper's Table 7 reports -- e.g.
 * 11.4 ms for V=256, C=16, T=32 on a 350 MHz Cortex-A7).
 *
 * This driver intentionally stays off the experiment::Sweep runner:
 * it measures wall-clock latency with Google Benchmark, and co-running
 * cells on pool workers would corrupt the timings.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "hw/platform.hh"
#include "market/lbt.hh"
#include "market/market.hh"

namespace {

using namespace ppm;

/** A populated market + LBT instance for one (V, C, T) combination. */
struct Scenario {
    Scenario(int clusters, int cores, int tasks_per_core,
             bool incremental = false)
        : chip(hw::synthetic_chip(clusters, cores))
    {
        market::PpmConfig cfg;
        cfg.w_tdp = 1e9;
        cfg.w_th = 1e9 - 0.5;
        // The scalability benchmarks hold demands constant, so the
        // active-set engine would collapse their rounds to early
        // exits; pin full recompute to keep measuring the clearing
        // work itself.  BM_IncrementalClearingRound opts back in.
        cfg.incremental = incremental;
        market = std::make_unique<market::Market>(&chip, cfg);
        Rng rng(2014);
        TaskId id = 0;
        for (CoreId c = 0; c < chip.num_cores(); ++c) {
            for (int t = 0; t < tasks_per_core; ++t) {
                market->add_task(id,
                                 1 + static_cast<int>(
                                         rng.uniform_int(0, 6)),
                                 c);
                market->set_demand(id, rng.uniform(10.0, 50.0));
                ++id;
            }
        }
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            market->set_cluster_power(v, rng.uniform(0.1, 2.0));
        // Two warm-up rounds to populate prices and supplies.
        market->round();
        market->round();
        lbt = std::make_unique<market::LbtModule>(
            market.get(),
            [this](TaskId t, ClusterId) { return market->task(t).demand; });
    }

    hw::Chip chip;
    std::unique_ptr<market::Market> market;
    std::unique_ptr<market::LbtModule> lbt;
};

void
BM_SupplyDemandRound(benchmark::State& state)
{
    Scenario s(static_cast<int>(state.range(0)),
               static_cast<int>(state.range(1)),
               static_cast<int>(state.range(2)));
    for (auto _ : state)
        benchmark::DoNotOptimize(s.market->round());
    state.SetLabel("V=" + std::to_string(state.range(0)) +
                   " C=" + std::to_string(state.range(1)) +
                   " T=" + std::to_string(state.range(2)) + " tasks=" +
                   std::to_string(state.range(0) * state.range(1) *
                                  state.range(2)));
}

void
BM_LbtConstrainedCore(benchmark::State& state)
{
    Scenario s(static_cast<int>(state.range(0)),
               static_cast<int>(state.range(1)),
               static_cast<int>(state.range(2)));
    // The per-core share: only cluster 0's constrained core
    // contemplates movements (against all V target clusters).
    for (auto _ : state)
        benchmark::DoNotOptimize(s.lbt->propose_migration_from(0));
    state.SetLabel("V=" + std::to_string(state.range(0)) +
                   " C=" + std::to_string(state.range(1)) +
                   " T=" + std::to_string(state.range(2)) + " tasks=" +
                   std::to_string(state.range(0) * state.range(1) *
                                  state.range(2)));
}

/**
 * Incremental active-set clearing under a controlled dirty fraction.
 * Args: {V, C, T, dirty_pct, incremental}.
 *
 * The market is warmed to a bitwise fixed point with light demands
 * (every bid at the clamped floor), then each measured round first
 * rewrites the demand bits of `dirty_pct`% of the tasks.  With the
 * engine off this always measures a full recompute; with it on, 0%
 * dirty is the early-exit path, 10% is the steady-state shape a
 * governor wake sees, and 100% bounds the bookkeeping overhead when
 * nothing can be skipped.  The skip-rate counters of the measured
 * rounds are reported alongside the timings.
 */
void
BM_IncrementalClearingRound(benchmark::State& state)
{
    const int dirty_pct = static_cast<int>(state.range(3));
    const bool incremental = state.range(4) != 0;
    Scenario s(static_cast<int>(state.range(0)),
               static_cast<int>(state.range(1)),
               static_cast<int>(state.range(2)), incremental);
    const int n_tasks = static_cast<int>(s.market->tasks().size());
    // Re-post light demands so every cluster is unconstrained and the
    // tatonnement reaches an exact fixed point (bids clamp to the
    // floor, savings saturate at the cap).
    Rng rng(7);
    std::vector<double> base(static_cast<std::size_t>(n_tasks));
    for (int t = 0; t < n_tasks; ++t) {
        base[static_cast<std::size_t>(t)] = rng.uniform(1.0, 3.0);
        s.market->set_demand(t, base[static_cast<std::size_t>(t)]);
    }
    // The large shapes need north of a thousand rounds for the last
    // few savings balances to saturate bit-exactly at the cap.
    for (int i = 0; i < 2500 && !s.market->last_report().early_exit;
         ++i)
        s.market->round();
    const int n_dirty = n_tasks * dirty_pct / 100;
    const market::ClearingStats warm = s.market->clearing_stats();
    bool flip = false;
    for (auto _ : state) {
        // Alternate the perturbation so the touched bits change on
        // every single iteration (a repeated write is bit-equal and
        // would read as clean -- correctly, but not what we measure).
        flip = !flip;
        const double eps = flip ? 0.25 : 0.0;
        for (int t = 0; t < n_dirty; ++t)
            s.market->set_demand(
                t, base[static_cast<std::size_t>(t)] + eps);
        benchmark::DoNotOptimize(s.market->round());
    }
    const market::ClearingStats st = s.market->clearing_stats();
    const long task_slots = st.task_slots - warm.task_slots;
    const long task_skips = st.tasks_skipped - warm.tasks_skipped;
    const long core_slots = st.core_slots - warm.core_slots;
    const long core_skips = st.cores_skipped - warm.cores_skipped;
    state.counters["task_skip_rate"] =
        task_slots > 0 ? static_cast<double>(task_skips) /
                             static_cast<double>(task_slots)
                       : 0.0;
    state.counters["core_skip_rate"] =
        core_slots > 0 ? static_cast<double>(core_skips) /
                             static_cast<double>(core_slots)
                       : 0.0;
    state.counters["early_exits"] = static_cast<double>(
        st.rounds_early_exit - warm.rounds_early_exit);
    state.SetLabel("V=" + std::to_string(state.range(0)) +
                   " C=" + std::to_string(state.range(1)) +
                   " T=" + std::to_string(state.range(2)) + " tasks=" +
                   std::to_string(n_tasks) +
                   " dirty=" + std::to_string(dirty_pct) + "%" +
                   (incremental ? " incremental" : " full"));
}

void
table7_args(benchmark::internal::Benchmark* b)
{
    // The paper's sweep: V up to 256 clusters, C up to 16 cores,
    // T in {8, 32} tasks per core -- extended one octave past the
    // paper's envelope (512 clusters, up to 262,144 tasks) to probe
    // where the sequential walk stops being linear.
    for (const auto& vc : {std::pair{2, 4}, std::pair{4, 8},
                           std::pair{8, 8}, std::pair{16, 8},
                           std::pair{16, 16}, std::pair{64, 16},
                           std::pair{256, 16}, std::pair{512, 16}}) {
        for (int t : {8, 32})
            b->Args({vc.first, vc.second, t});
    }
    b->Unit(benchmark::kMillisecond);
}

void
incremental_args(benchmark::internal::Benchmark* b)
{
    // A small shape and a 4,096-task one, crossed with the dirty
    // fraction (0% = governor wake with nothing changed, 10% =
    // typical steady state, 100% = everything moved) and the engine
    // flag; the same-shape full/incremental pair at each fraction is
    // the headline comparison.
    for (const auto& shape :
         {std::tuple{4, 4, 16},   //    256 tasks, 16 cores
          std::tuple{8, 8, 64}})  //  4,096 tasks, 64 cores, 8 clusters
    {
        for (int dirty : {0, 10, 100}) {
            for (int inc : {0, 1}) {
                b->Args({std::get<0>(shape), std::get<1>(shape),
                         std::get<2>(shape), dirty, inc});
            }
        }
    }
    b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_SupplyDemandRound)->Apply(table7_args);
BENCHMARK(BM_LbtConstrainedCore)->Apply(table7_args);
BENCHMARK(BM_IncrementalClearingRound)->Apply(incremental_args);

} // namespace

BENCHMARK_MAIN();
