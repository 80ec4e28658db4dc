/**
 * @file
 * The engine's steady state allocates nothing.  After a warm-up, a
 * steady Simulation::step(), a macro-stepped run_until() window,
 * Scheduler::tick() and Market::round() make zero heap allocations,
 * and so do the PPM, HPM and HL governor wakes on a paper set.  A counting
 * global operator new brackets each measured window; this file is its
 * own test binary so the override reaches no other suite.
 *
 * The engine setups are bench_hotpath's: synthetic V x C chips running
 * Table-7-style workloads drawn from seed 2014.  The paper's task sets
 * are pinned for the governor wakes only: after warm-up their HRM
 * rings still grow when a heart rate rises (EXPERIMENTS.md, "Hot-path
 * microbenchmarks").
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "experiment/experiment.hh"
#include "hw/platform.hh"
#include "market/market.hh"
#include "market/ppm_governor.hh"
#include "metrics/telemetry.hh"
#include "sched/scheduler.hh"
#include "sim/simulation.hh"
#include "workload/sets.hh"
#include "workload/task.hh"

// Both new and delete forward to malloc/free, so the pairing GCC's
// -Wmismatched-new-delete flags after inlining is actually consistent.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<long> g_allocs{0};

long
alloc_count()
{
    return g_allocs.load(std::memory_order_relaxed);
}
} // namespace

void*
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ppm {
namespace {

/** Sink that swallows records: tracing enabled, I/O cost excluded. */
class NullSink : public metrics::TraceSink
{
  public:
    void sample(const std::string&, SimTime, double) override {}
    void event(const metrics::TraceEvent&) override {}
};

/** Random Table-7-style workload: demands uniform in [10, 50] PU. */
std::vector<workload::TaskSpec>
table7_specs(int tasks)
{
    Rng rng(2014);
    std::vector<workload::TaskSpec> specs;
    for (int t = 0; t < tasks; ++t) {
        specs.push_back(workload::steady_task_spec(
            "t" + std::to_string(t),
            1 + static_cast<int>(rng.uniform_int(0, 6)),
            rng.uniform(10.0, 50.0)));
    }
    return specs;
}

struct SimShape {
    int clusters;
    int cores;
    bool traced;
};

/** bench_hotpath's step chips, traced and untraced; 2 tasks per core. */
const SimShape kSimShapes[] = {
    {2, 4, false}, {2, 4, true}, {4, 8, false}, {4, 8, true}};

std::string
label(const SimShape& s)
{
    return "V=" + std::to_string(s.clusters) +
        " C=" + std::to_string(s.cores) +
        (s.traced ? " traced" : " untraced");
}

/**
 * A PPM simulation whose bid period (1 h) keeps every market round
 * and LBT epoch out of the measured window, warmed by 3,000 ticks
 * past the QoS warmup and the first trace samples.
 */
std::unique_ptr<sim::Simulation>
steady_sim(const SimShape& s)
{
    market::PpmGovernorConfig cfg;
    cfg.market.w_tdp = 1e9;
    cfg.market.w_th = 1e9 - 0.5;
    cfg.bid_period = 3600 * kSecond;
    sim::SimConfig sim_cfg;
    sim_cfg.duration = 1LL << 60;
    auto sim = std::make_unique<sim::Simulation>(
        hw::synthetic_chip(s.clusters, s.cores),
        table7_specs(s.clusters * s.cores * 2),
        std::make_unique<market::PpmGovernor>(cfg), sim_cfg);
    if (s.traced)
        sim->bus().add_sink(std::make_unique<NullSink>());
    for (int i = 0; i < 3000; ++i)
        sim->step();
    return sim;
}

TEST(AllocFree, SteadySimulationStep)
{
    for (const SimShape& s : kSimShapes) {
        auto sim = steady_sim(s);
        const long before = alloc_count();
        for (int i = 0; i < 60000; ++i)
            sim->step();
        EXPECT_EQ(alloc_count() - before, 0) << label(s);
    }
}

TEST(AllocFree, MacroSteppedRunUntil)
{
    // steady_sim's 3,000 boundary steps already grow the scratch an
    // interval reuses: each looks up the slot cache, growing
    // begin_replay's slots and cluster supplies, and advances the
    // platform, growing ThermalModel::advance's columns.  So the very
    // first 60-s window allocates nothing.
    const SimTime window = 60 * kSecond;
    for (const SimShape& s : kSimShapes) {
        auto sim = steady_sim(s);
        const long before = alloc_count();
        sim->run_until(sim->now() + window);
        EXPECT_EQ(alloc_count() - before, 0) << label(s);
    }
}

/**
 * Forwards every Governor virtual to the wrapped governor unchanged
 * and counts the heap allocations made inside tick() alone, so engine
 * allocations (an HRM ring growing) stay out of the count.
 */
class TickAllocProbe : public sim::Governor
{
  public:
    explicit TickAllocProbe(std::unique_ptr<sim::Governor> inner)
        : inner_(std::move(inner))
    {
    }

    long allocs() const { return allocs_; }

    std::string name() const override { return inner_->name(); }
    void init(sim::Simulation& sim) override { inner_->init(sim); }
    void tick(sim::Simulation& sim, SimTime now, SimTime dt) override
    {
        const long before = alloc_count();
        inner_->tick(sim, now, dt);
        allocs_ += alloc_count() - before;
    }
    SimTime next_wake(SimTime now) const override
    {
        return inner_->next_wake(now);
    }
    bool quiescent(const sim::Simulation& sim) const override
    {
        return inner_->quiescent(sim);
    }
    bool quiescent_at_power(Watts chip_power) const override
    {
        return inner_->quiescent_at_power(chip_power);
    }
    void replay_quiescent(const sim::Simulation& sim,
                          const std::vector<Watts>& cluster_power,
                          long n) override
    {
        inner_->replay_quiescent(sim, cluster_power, n);
    }
    void set_power_budget(Watts w_tdp) override
    {
        inner_->set_power_budget(w_tdp);
    }
    double power_deficit() const override
    {
        return inner_->power_deficit();
    }
    void task_admitted(sim::Simulation& sim, TaskId id,
                       double big_speedup) override
    {
        inner_->task_admitted(sim, id, big_speedup);
    }
    sim::ClearingStats clearing_stats() const override
    {
        return inner_->clearing_stats();
    }
    sim::AdmitReject admission_check() const override
    {
        return inner_->admission_check();
    }
    void save(snap::Writer& w) const override { inner_->save(w); }
    void load(snap::Reader& r) override { inner_->load(r); }

  private:
    std::unique_ptr<sim::Governor> inner_;
    long allocs_ = 0;
};

TEST(AllocFree, BaselineWakes)
{
    // PPM, HPM and HL on each of the paper's nine sets, seed 42,
    // uncapped and macro-stepped.  The scheduler's per-core task
    // lists and HPM's demand scratch are sized when tasks are added;
    // PPM's LBT scratch reserves its per-task bounds on each wake.
    // The test warms 10 s and counts the next 30 s.
    const SimTime warm = 10 * kSecond;
    const SimTime horizon = 40 * kSecond;
    for (const workload::WorkloadSet& set :
         workload::standard_workload_sets()) {
        const auto specs = workload::instantiate(set, 42, 1,
                                                 horizon + 100 * kSecond);
        for (const char* policy : {"PPM", "HPM", "HL"}) {
            auto probe = std::make_unique<TickAllocProbe>(
                experiment::make_governor(policy, 1e9, {}));
            const TickAllocProbe* counts = probe.get();
            sim::SimConfig cfg;
            cfg.duration = horizon;
            sim::Simulation sim(hw::tc2_chip(), specs, std::move(probe),
                                cfg);
            sim.run_until(warm);
            const long before = counts->allocs();
            sim.run_until(horizon);
            EXPECT_EQ(counts->allocs() - before, 0)
                << policy << " on " << set.name;
        }
    }
}

TEST(AllocFree, SchedulerTick)
{
    // (V, C, tasks per core), as in BM_SchedulerTick.
    const int shapes[][3] = {{2, 4, 2}, {4, 8, 4}};
    for (const auto& shape : shapes) {
        hw::Chip chip = hw::synthetic_chip(shape[0], shape[1]);
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            chip.cluster(v).set_level(chip.cluster(v).vf().levels() / 2);
        sched::Scheduler sched(&chip, hw::MigrationModel{});
        const int tasks = chip.num_cores() * shape[2];
        const auto specs = table7_specs(tasks);
        std::vector<std::unique_ptr<workload::Task>> owned;
        for (int t = 0; t < tasks; ++t) {
            owned.push_back(std::make_unique<workload::Task>(
                t, specs[static_cast<std::size_t>(t)]));
            sched.add_task(owned.back().get(),
                           static_cast<CoreId>(t % chip.num_cores()));
        }
        SimTime now = 0;
        for (int i = 0; i < 100; ++i, now += kMillisecond)
            sched.tick(now, kMillisecond);
        const long before = alloc_count();
        for (int i = 0; i < 10000; ++i, now += kMillisecond)
            sched.tick(now, kMillisecond);
        EXPECT_EQ(alloc_count() - before, 0) << "tasks=" << tasks;
    }
}

TEST(AllocFree, MarketRound)
{
    // (V, C, tasks per core), as in BM_MarketRound.  The first 1,000
    // rounds allocate (21 times at 2x4x2, 39 at 16x8x8) as the
    // round-local work lists grow; every later round reuses them.
    const int shapes[][3] = {{2, 4, 2}, {16, 8, 8}};
    for (const auto& shape : shapes) {
        hw::Chip chip = hw::synthetic_chip(shape[0], shape[1]);
        market::PpmConfig cfg;
        cfg.w_tdp = 1e9;
        cfg.w_th = 1e9 - 0.5;
        market::Market market(&chip, cfg);
        Rng rng(2014);
        TaskId id = 0;
        for (CoreId c = 0; c < chip.num_cores(); ++c) {
            for (int t = 0; t < shape[2]; ++t, ++id) {
                market.add_task(
                    id, 1 + static_cast<int>(rng.uniform_int(0, 6)), c);
                market.set_demand(id, rng.uniform(10.0, 50.0));
            }
        }
        for (ClusterId v = 0; v < chip.num_clusters(); ++v)
            market.set_cluster_power(v, rng.uniform(0.1, 2.0));
        for (int r = 0; r < 1000; ++r)
            market.round();
        const long before = alloc_count();
        for (int r = 0; r < 1000; ++r)
            market.round();
        EXPECT_EQ(alloc_count() - before, 0) << "tasks=" << id;
    }
}

} // namespace
} // namespace ppm
