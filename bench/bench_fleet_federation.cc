/**
 * @file
 * Fleet-federation scalability: wall-clock cost of one supervisor
 * epoch (parallel shard macro-stepping + batched cross-shard
 * settlement) swept over fleet size and shard-stepping thread count
 * (FleetConfig::jobs: the control thread plus jobs - 1 pool workers).
 *
 * Each chip is a full per-chip economy (TC2-like platform, PPM
 * market governor, its own task population); one epoch advances
 * every shard 96 ms of simulated time and then settles the fleet
 * power budget.  The flagship shape clears 64 chips x 160 tasks =
 * 10,240 tasks per epoch.  Every jobs value produces byte-identical
 * fleet state (shards are disjoint between barriers and the
 * settlement runs in chip-id order on the control thread), so the
 * jobs sweep is a pure wall-clock scaling measurement.  Every epoch
 * row times the same window -- the first kEpochs epochs of a freshly
 * built fleet -- so rows differ only in shape and thread count.
 *
 * Tracked as BENCH_fleet.json via scripts/bench_fleet.sh.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/rng.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "market/ppm_governor.hh"
#include "snapshot/archive.hh"

namespace {

using namespace ppm;

/** Epochs each BM_FleetEpoch / BM_ChipFailureEvacuation row times. */
constexpr int kEpochs = 32;

/** A ready-to-step fleet for one (chips, tasks_per_chip, jobs). */
std::unique_ptr<fleet::Fleet>
make_fleet(int chips, int tasks_per_chip, int jobs)
{
    fleet::FleetConfig fc;
    fc.chips = chips;
    fc.epoch = 96 * kMillisecond;
    // Per-chip share deliberately below each chip's demand so the
    // supervisor has real deficits to arbitrate every epoch.
    fc.supervisor.total_budget = 3.5 * chips;
    // Effectively inexhaustible: the measurement loop meters single
    // epochs and must never hit the end of the run.
    fc.sim.duration = 100000 * kSecond;
    fc.sim.tdp_for_metrics = 3.5;
    fc.jobs = jobs;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor =
        [](int, Watts budget) -> std::unique_ptr<sim::Governor> {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = budget;
        cfg.market.w_th = market::derive_w_th(budget);
        return std::make_unique<market::PpmGovernor>(cfg);
    };
    for (int c = 0; c < chips; ++c) {
        // Distinct per-chip populations from a chip-keyed stream.
        Rng rng(mix64(2014 + static_cast<std::uint64_t>(c)));
        fleet::ChipWorkload wl;
        wl.specs.reserve(static_cast<std::size_t>(tasks_per_chip));
        for (int t = 0; t < tasks_per_chip; ++t) {
            std::string name = "t";
            name += std::to_string(t);
            wl.specs.push_back(workload::steady_task_spec(
                name, 1 + static_cast<int>(rng.uniform_int(0, 3)),
                rng.uniform(30.0, 300.0), rng.uniform(1.2, 2.2),
                rng.uniform(5.0, 30.0)));
        }
        fc.workloads.push_back(std::move(wl));
    }
    return std::make_unique<fleet::Fleet>(std::move(fc));
}

/**
 * One supervisor epoch: parallel shard stepping to the barrier plus
 * gather/settle/retarget/sample.  Args: {chips, tasks_per_chip,
 * jobs}; items = tasks cleared per epoch across the fleet.
 */
void
BM_FleetEpoch(benchmark::State& state)
{
    const int chips = static_cast<int>(state.range(0));
    const int tasks_per_chip = static_cast<int>(state.range(1));
    const int jobs = static_cast<int>(state.range(2));
    auto fleet = make_fleet(chips, tasks_per_chip, jobs);
    for (auto _ : state)
        benchmark::DoNotOptimize(fleet->run_epoch());
    state.SetItemsProcessed(state.iterations() * chips *
                            tasks_per_chip);
    state.SetLabel("chips=" + std::to_string(chips) +
                   " tasks/chip=" + std::to_string(tasks_per_chip) +
                   " tasks/epoch=" +
                   std::to_string(chips * tasks_per_chip) +
                   " jobs=" + std::to_string(jobs));
}

void
fleet_args(benchmark::internal::Benchmark* b)
{
    // A small warm-up shape plus the flagship: 64 chips x 160 tasks
    // = 10,240 tasks cleared per epoch, swept over the shard-stepping
    // thread count (jobs=1 inlines on the control thread and is the
    // speedup baseline).
    for (const auto& shape : {std::pair{16, 40}, std::pair{64, 160}}) {
        for (int jobs : {1, 2, 4})
            b->Args({shape.first, shape.second, jobs});
    }
    b->Iterations(kEpochs);
    b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_FleetEpoch)->Apply(fleet_args);

/** make_fleet() plus `transitions` alternating fail/recover events:
 *  each epoch applies one chip transition, so the whole timed window
 *  is evacuation/re-admission churn. */
std::unique_ptr<fleet::Fleet>
make_failing_fleet(int chips, int tasks_per_chip, int jobs,
                   long transitions)
{
    fleet::FleetConfig fc;
    fc.chips = chips;
    fc.epoch = 96 * kMillisecond;
    fc.supervisor.total_budget = 3.5 * chips;
    fc.sim.duration = 100000 * kSecond;
    fc.sim.tdp_for_metrics = 3.5;
    fc.jobs = jobs;
    fc.make_chip = [](int) { return hw::tc2_chip(); };
    fc.make_governor =
        [](int, Watts budget) -> std::unique_ptr<sim::Governor> {
        market::PpmGovernorConfig cfg;
        cfg.market.w_tdp = budget;
        cfg.market.w_th = market::derive_w_th(budget);
        return std::make_unique<market::PpmGovernor>(cfg);
    };
    for (int c = 0; c < chips; ++c) {
        Rng rng(mix64(2014 + static_cast<std::uint64_t>(c)));
        fleet::ChipWorkload wl;
        wl.specs.reserve(static_cast<std::size_t>(tasks_per_chip));
        for (int t = 0; t < tasks_per_chip; ++t) {
            std::string name = "t";
            name += std::to_string(t);
            wl.specs.push_back(workload::steady_task_spec(
                name, 1 + static_cast<int>(rng.uniform_int(0, 3)),
                rng.uniform(30.0, 300.0), rng.uniform(1.2, 2.2),
                rng.uniform(5.0, 30.0)));
        }
        fc.workloads.push_back(std::move(wl));
    }
    // Fail a rotating chip on every odd barrier, recover it on the
    // next: each measured epoch carries exactly one transition.
    for (long k = 0; k < transitions; k += 2) {
        const int chip = static_cast<int>((k / 2) % chips);
        fault::FleetFaultEvent fail;
        fail.kind = fault::FleetFaultKind::kChipFail;
        fail.time = (k + 1) * fc.epoch;
        fail.chip = chip;
        fc.fleet_faults.add(fail);
        fault::FleetFaultEvent recover;
        recover.kind = fault::FleetFaultKind::kChipRecover;
        recover.time = (k + 2) * fc.epoch;
        recover.chip = chip;
        fc.fleet_faults.add(recover);
    }
    return std::make_unique<fleet::Fleet>(std::move(fc));
}

/**
 * One supervisor epoch under perpetual chip failure/recovery: every
 * epoch applies one transition, so the measurement is the epoch cost
 * of BM_FleetEpoch plus evacuation (roster drain, cheapest-chip
 * placement, re-admission) amortized across the alternation.  Args:
 * {chips, tasks_per_chip, jobs}.
 */
void
BM_ChipFailureEvacuation(benchmark::State& state)
{
    const int chips = static_cast<int>(state.range(0));
    const int tasks_per_chip = static_cast<int>(state.range(1));
    const int jobs = static_cast<int>(state.range(2));
    auto fleet = make_failing_fleet(chips, tasks_per_chip, jobs, kEpochs);
    for (auto _ : state)
        benchmark::DoNotOptimize(fleet->run_epoch());
    state.SetItemsProcessed(state.iterations() * chips *
                            tasks_per_chip);
    state.SetLabel("chips=" + std::to_string(chips) +
                   " tasks/chip=" + std::to_string(tasks_per_chip) +
                   " jobs=" + std::to_string(jobs) +
                   " evacuations=" + std::to_string(chips ? 1 : 0) +
                   "/epoch");
}

void
failure_args(benchmark::internal::Benchmark* b)
{
    for (const auto& shape : {std::pair{16, 40}, std::pair{64, 160}}) {
        for (int jobs : {1, 2, 4})
            b->Args({shape.first, shape.second, jobs});
    }
    b->Iterations(kEpochs);
    b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_ChipFailureEvacuation)->Apply(failure_args);

/**
 * Crash-consistent snapshot round trip on a warmed-up fleet: save
 * every shard's full state (market memos included), finalize the
 * checksummed archive, validate it, and load it back into the same
 * federation.  Bytes processed = archive size, so the throughput
 * column reads as serialization bandwidth.  Args: {chips,
 * tasks_per_chip}.
 */
void
BM_SnapshotRoundTrip(benchmark::State& state)
{
    const int chips = static_cast<int>(state.range(0));
    const int tasks_per_chip = static_cast<int>(state.range(1));
    auto fleet = make_fleet(chips, tasks_per_chip, 1);
    // Warm the economy so the archive carries real market state.
    for (int i = 0; i < 8; ++i)
        fleet->run_epoch();
    std::size_t bytes = 0;
    for (auto _ : state) {
        snap::Writer w;
        fleet->save(w);
        snap::Reader r;
        const snap::LoadStatus st = r.open(w.finalize());
        if (st != snap::LoadStatus::kOk)
            state.SkipWithError("snapshot failed validation");
        fleet->load(r);
        bytes = w.size();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes));
    state.SetLabel("chips=" + std::to_string(chips) +
                   " tasks/chip=" + std::to_string(tasks_per_chip) +
                   " archive_bytes=" + std::to_string(bytes));
}

void
snapshot_args(benchmark::internal::Benchmark* b)
{
    b->Args({1, 160});
    b->Args({16, 40});
    b->Args({64, 160});
    b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_SnapshotRoundTrip)->Apply(snapshot_args);

} // namespace

BENCHMARK_MAIN();
