#include "baselines/hl_governor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"

namespace ppm::baselines {

namespace {

/** `next` after the per-tick wakes on ticks before `now` (catch_up()). */
SimTime
caught_up(SimTime next, SimTime period, SimTime now, SimTime dt)
{
    while (next < now) {
        const SimTime wake = now - (now - next) / dt * dt;
        if (wake == now)
            break;  // Due on this very tick.
        next = wake + period;
    }
    return next;
}

} // namespace

HlGovernor::HlGovernor(HlConfig cfg) : cfg_(cfg)
{
    PPM_ASSERT(cfg_.up_threshold > cfg_.down_threshold,
               "up threshold must exceed down threshold");
}

void
HlGovernor::init(sim::Simulation& sim)
{
    // Identify the LITTLE and big clusters.
    for (const auto& cl : sim.chip().clusters()) {
        if (cl.type().core_class == hw::CoreClass::kBig)
            big_ = cl.id();
        else
            little_ = cl.id();
    }
    PPM_ASSERT(little_ != kInvalidId, "HL needs a LITTLE cluster");
    sim_ = &sim;
    // ondemand starts at the lowest frequency.
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v)
        sim.chip().cluster(v).set_level(0);
    guard_.init(sim.chip().num_clusters(), sim.fault_injector());
    next_sched_ = cfg_.sched_period;
    next_dvfs_ = cfg_.dvfs_period;
    cluster_keys_.clear();
    cluster_keys_.reserve(
        static_cast<std::size_t>(sim.chip().num_clusters()) * 2);
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        const std::string p = "cluster" + std::to_string(v) + "_";
        cluster_keys_.push_back(p + "util");
        cluster_keys_.push_back(p + "level");
    }
}

bool
HlGovernor::schedule(sim::Simulation& sim, SimTime now)
{
    auto& sched = sim.scheduler();
    bool requested = false;
    // Activeness-threshold migrations (heterogeneity-aware part).
    // An active task moves up "at the first opportunity" (Section
    // 5.3); the policy never consults the big cluster's load, which
    // is exactly why it crowds the A15 cluster on demanding
    // workloads.  A quiet task on big moves back down.
    if (big_ != kInvalidId && !big_killed_) {
        for (workload::Task* t : sim.tasks()) {
            if (!sched.active(t->id()))
                continue;
            const CoreId cur = sched.core_of(t->id());
            const ClusterId v = sim.chip().cluster_of(cur);
            const double load = sched.task_load(t->id());
            CoreId dst = kInvalidId;
            if (v == little_ && load > cfg_.up_threshold)
                dst = sched.least_loaded_core(big_);
            else if (v == big_ && load < cfg_.down_threshold)
                dst = sched.least_loaded_core(little_);
            if (dst != kInvalidId) {
                sim.request_migration(t->id(), dst, now);
                requested = true;
            }
        }
    }
    // CFS periodic balancing within each cluster (the HMP scheduler
    // keeps big and LITTLE in separate scheduling domains, so there
    // is no chip-wide spreading).
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        if (!sim.chip().cluster(v).powered())
            continue;
        const auto& cores = sim.chip().cluster(v).cores();
        CoreId max_core = kInvalidId;
        CoreId min_core = kInvalidId;
        for (CoreId c : cores) {
            if (!sim.chip().core_online(c))
                continue;
            if (max_core == kInvalidId ||
                sched.tasks_on(c).size() >
                    sched.tasks_on(max_core).size())
                max_core = c;
            if (min_core == kInvalidId ||
                sched.tasks_on(c).size() <
                    sched.tasks_on(min_core).size())
                min_core = c;
        }
        if (max_core == kInvalidId)
            continue;
        // A reference into the live list: front() is read before
        // the migration changes it.
        const auto& heavy = sched.tasks_on(max_core);
        if (heavy.size() >= sched.tasks_on(min_core).size() + 2) {
            sim.request_migration(heavy.front(), min_core, now);
            requested = true;
        }
    }
    return requested;
}

bool
HlGovernor::run_ondemand(sim::Simulation& sim)
{
    bool requested = false;
    const bool traced = sim.bus().enabled();
    if (traced)
        epoch_event_.begin(sim.now());
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        hw::Cluster& cl = sim.chip().cluster(v);
        if (!cl.powered())
            continue;
        double max_util = 0.0;
        for (CoreId c : cl.cores()) {
            max_util = std::max(max_util,
                                sim.scheduler().core_utilization(c));
        }
        // Kernel ondemand: jump straight to the maximum frequency,
        // then relax to the lowest frequency that keeps the
        // utilization below the threshold.
        const int level = max_util > cfg_.ondemand_up
            ? cl.vf().levels() - 1
            : cl.vf().level_for_demand(max_util * cl.supply() /
                                       cfg_.ondemand_up);
        if (level != cl.level())
            requested = true;
        sim.request_level(v, level);
        if (traced) {
            const std::string* k =
                &cluster_keys_[static_cast<std::size_t>(v) * 2];
            epoch_event_.num(k[0].c_str(), max_util)
                .num(k[1].c_str(), cl.level());
        }
    }
    if (traced)
        sim.bus().event(epoch_event_.finish());
    return requested;
}

void
HlGovernor::kill_big_cluster(sim::Simulation& sim, SimTime now)
{
    big_killed_ = true;
    for (workload::Task* t : sim.tasks()) {
        const CoreId c = sim.scheduler().core_of(t->id());
        if (sim.chip().cluster_of(c) != big_)
            continue;
        const CoreId dst = sim.scheduler().least_loaded_core(little_);
        // Emergency evacuation bypasses the fault layer: the kernel
        // moves the runqueues itself before cutting the power rail.
        if (dst != kInvalidId)
            sim.scheduler().migrate(t->id(), dst, now);
    }
    sim.chip().cluster(big_).set_powered(false);
}

void
HlGovernor::replay_quiescent(const sim::Simulation& sim,
                             const std::vector<Watts>& cluster_power,
                             long n)
{
    if (sim.fault_injector() == nullptr)
        return;
    // Every replayed tick's read is clean (fault edges bound the
    // interval), so only the *last* read's value survives in the
    // guard.  That read sees the sensors as the previous tick left
    // them: the interval's own constant power when the interval spans
    // >= 2 ticks, the pre-interval value (the last stepped tick's
    // era) when n == 1.
    replay_good_.resize(cluster_power.size());
    for (std::size_t v = 0; v < cluster_power.size(); ++v) {
        replay_good_[v] = n >= 2
            ? cluster_power[v]
            : sim.sensors().instantaneous(static_cast<ClusterId>(v));
    }
    guard_.replay_clean_reads(replay_good_);
}

bool
HlGovernor::quiescent(const sim::Simulation& sim) const
{
    // The per-tick guard state (last-good cache, staleness age) only
    // evolves on executed ticks, so fault windows and safe mode force
    // per-tick execution -- in macro-stepped and per-tick runs alike.
    const fault::FaultInjector* inj = sim.fault_injector();
    if (inj != nullptr &&
        (guard_.safe_mode() || inj->sensor_fault_active(sim.now())))
        return false;
    return big_killed_ || big_ == kInvalidId ||
        sim.sensors().instantaneous_chip() <= cfg_.tdp;
}

void
HlGovernor::catch_up(SimTime now, SimTime dt) const
{
    next_sched_ = caught_up(next_sched_, cfg_.sched_period, now, dt);
    next_dvfs_ = caught_up(next_dvfs_, cfg_.dvfs_period, now, dt);
}

void
HlGovernor::tick(sim::Simulation& sim, SimTime now, SimTime dt)
{
    catch_up(now, dt);
    const Watts w = guard_.read_chip_instantaneous(sim.sensors(), now);
    guard_.update_safe_mode(now);
    if (guard_.safe_mode()) {
        // Readings too stale to trust: hold every powered cluster at
        // the lowest level; migrations and ondemand stand down until
        // fresh readings return.  Timers keep advancing so control
        // resumes on its normal cadence.
        for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
            if (sim.chip().cluster(v).powered())
                sim.request_level(v, 0);
        }
        if (now >= next_sched_)
            next_sched_ = now + cfg_.sched_period;
        if (now >= next_dvfs_)
            next_dvfs_ = now + cfg_.dvfs_period;
        return;
    }
    // TDP emergency: power down the big cluster for good.
    bool requested = false;
    if (!big_killed_ && big_ != kInvalidId && w > cfg_.tdp) {
        kill_big_cluster(sim, now);
        requested = true;
    }
    const bool sched_due = now >= next_sched_;
    const bool dvfs_due = now >= next_dvfs_;
    if (sched_due) {
        next_sched_ = now + cfg_.sched_period;
        requested |= schedule(sim, now);
    }
    if (dvfs_due) {
        next_dvfs_ = now + cfg_.dvfs_period;
        requested |= run_ondemand(sim);
    }
    // Both decisions read this state and left it alone, so until it
    // changes every wake would do the same.  The grant needs no
    // injector (requests go through its fault windows) and no bus
    // sink (every DVFS wake emits an epoch event).
    if (sched_due && dvfs_due && !requested &&
        sim.fault_injector() == nullptr && !sim.bus().enabled())
        sim.rest_until_change();
}

void
HlGovernor::save(snap::Writer& w) const
{
    if (sim_ != nullptr)
        catch_up(sim_->now(), sim_->config().tick);
    w(*this);
}

void
HlGovernor::load(snap::Reader& r)
{
    r(*this);
}

} // namespace ppm::baselines
