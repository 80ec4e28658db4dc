#include "baselines/hpm_governor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "metrics/telemetry.hh"
#include "snapshot/archive.hh"
#include "sched/nice.hh"

namespace ppm::baselines {

double
Pid::step(double error, double dt_s)
{
    integral_ += error * dt_s;
    double derivative = 0.0;
    if (has_prev_ && dt_s > 0.0)
        derivative = (error - prev_error_) / dt_s;
    prev_error_ = error;
    has_prev_ = true;
    const double raw = params_.kp * error + params_.ki * integral_
        + params_.kd * derivative;
    // Anti-windup: clamp the integrator when the output saturates.
    const double out = std::clamp(raw, params_.out_min, params_.out_max);
    if (raw != out && params_.ki != 0.0)
        integral_ -= error * dt_s;
    return out;
}

void
Pid::reset()
{
    integral_ = 0.0;
    prev_error_ = 0.0;
    has_prev_ = false;
}

HpmGovernor::HpmGovernor(HpmConfig cfg) : cfg_(cfg)
{
    PPM_ASSERT(cfg_.dvfs_period > 0 && cfg_.lbt_period > 0 &&
                   cfg_.tdp_period > 0,
               "control periods must be positive");
}

void
HpmGovernor::init(sim::Simulation& sim)
{
    for (const auto& cl : sim.chip().clusters()) {
        if (cl.type().core_class == hw::CoreClass::kBig)
            big_ = cl.id();
        else
            little_ = cl.id();
        cluster_pid_.emplace_back(cfg_.freq_pid);
        level_f_.push_back(0.0);
        level_cap_.push_back(cl.vf().levels() - 1);
        sim.chip().cluster(cl.id()).set_level(0);
    }
    guard_.init(sim.chip().num_clusters(), sim.fault_injector());
    unsat_count_.assign(sim.tasks().size(), 0);
    sat_count_.assign(sim.tasks().size(), 0);
    demand_scratch_.reserve(sim.tasks().size());
    next_dvfs_ = cfg_.dvfs_period;
    next_lbt_ = cfg_.lbt_period;
    next_tdp_ = cfg_.tdp_period;
    sim.sensors().mark();
    cluster_keys_.clear();
    cluster_keys_.reserve(
        static_cast<std::size_t>(sim.chip().num_clusters()) * 4);
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        const std::string p = "cluster" + std::to_string(v) + "_";
        cluster_keys_.push_back(p + "demand");
        cluster_keys_.push_back(p + "pid_out");
        cluster_keys_.push_back(p + "level");
        cluster_keys_.push_back(p + "level_cap");
    }
}

void
HpmGovernor::run_dvfs(sim::Simulation& sim, SimTime dt)
{
    const bool traced = sim.bus().enabled();
    if (traced)
        epoch_event_.begin(sim.now());
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        hw::Cluster& cl = sim.chip().cluster(v);
        // Constrained-core demand from the tasks' HRM estimates.
        Pu constrained = 0.0;
        for (CoreId c : cl.cores()) {
            Pu core_demand = 0.0;
            for (TaskId t : sim.scheduler().tasks_on(c)) {
                core_demand += sim.scheduler().task(t).hrm()
                    .estimate_demand(sim.now(), cfg_.demand_clamp);
            }
            constrained = std::max(constrained, core_demand);
        }
        const double error =
            (constrained - cl.supply()) / cl.vf().max_supply();
        const double out = cluster_pid_[static_cast<std::size_t>(v)]
            .step(error, to_seconds(dt));
        auto& lf = level_f_[static_cast<std::size_t>(v)];
        lf = std::clamp(lf + out, 0.0,
                        static_cast<double>(
                            level_cap_[static_cast<std::size_t>(v)]));
        sim.request_level(v, static_cast<int>(std::lround(lf)));
        if (traced) {
            const std::string* k =
                &cluster_keys_[static_cast<std::size_t>(v) * 4];
            epoch_event_.num(k[0].c_str(), constrained)
                .num(k[1].c_str(), out)
                .num(k[2].c_str(), cl.level())
                .num(k[3].c_str(),
                     level_cap_[static_cast<std::size_t>(v)]);
        }
    }
    if (traced)
        sim.bus().event(epoch_event_.finish());
}

void
HpmGovernor::run_tdp(sim::Simulation& sim)
{
    const Watts w = guard_.read_chip_average(sim.sensors(), sim.now());
    sim.sensors().mark();
    guard_.update_safe_mode(sim.now());
    if (guard_.safe_mode()) {
        // Readings too stale to trust against the TDP: clamp every
        // cluster to its lowest level and cap, reset the PI state, and
        // let the caps relax one step per period once fresh readings
        // return (graceful ramp back up).
        for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
            level_cap_[static_cast<std::size_t>(v)] = 0;
            level_f_[static_cast<std::size_t>(v)] = 0.0;
            cluster_pid_[static_cast<std::size_t>(v)].reset();
            if (sim.chip().cluster(v).powered())
                sim.request_level(v, 0);
        }
        return;
    }
    if (w > cfg_.tdp) {
        // Throttle the power-hungriest cluster first (the big one).
        const ClusterId victim = big_ != kInvalidId ? big_ : little_;
        auto& cap = level_cap_[static_cast<std::size_t>(victim)];
        if (cap > 0) {
            --cap;
        } else if (victim == big_) {
            auto& lcap = level_cap_[static_cast<std::size_t>(little_)];
            lcap = std::max(0, lcap - 1);
        }
    } else if (w < 0.85 * cfg_.tdp) {
        // Headroom: relax caps one step at a time, LITTLE first.
        for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
            auto& cap = level_cap_[static_cast<std::size_t>(v)];
            const int max_level =
                sim.chip().cluster(v).vf().levels() - 1;
            if (cap < max_level) {
                ++cap;
                break;
            }
        }
    }
}

void
HpmGovernor::run_lbt(sim::Simulation& sim, SimTime now)
{
    auto& sched = sim.scheduler();
    // Naive intra-cluster balancing by task count.
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
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
        if (heavy.size() >= sched.tasks_on(min_core).size() + 2)
            sim.request_migration(heavy.front(), min_core, now);
    }
    if (big_ == kInvalidId)
        return;

    // Threshold migrations, oblivious to the target cluster's load.
    double little_util = 0.0;
    for (CoreId c : sim.chip().cluster(little_).cores())
        little_util = std::max(little_util, sched.core_utilization(c));
    for (workload::Task* t : sim.tasks()) {
        const TaskId id = t->id();
        if (!sched.active(id))
            continue;
        const ClusterId v = sim.chip().cluster_of(sched.core_of(id));
        const Pu demand =
            t->hrm().estimate_demand(now, cfg_.demand_clamp);
        const bool satisfied =
            sched.task_supply_last(id) >= 0.95 * demand;
        auto& unsat = unsat_count_[static_cast<std::size_t>(id)];
        auto& sat = sat_count_[static_cast<std::size_t>(id)];
        if (satisfied) {
            unsat = 0;
            ++sat;
        } else {
            sat = 0;
            ++unsat;
        }
        const hw::Cluster& cl = sim.chip().cluster(v);
        const bool cluster_maxed =
            cl.level() >= level_cap_[static_cast<std::size_t>(v)];
        if (v == little_ && unsat >= cfg_.up_migrate_after &&
            cluster_maxed) {
            const CoreId dst = sched.least_loaded_core(big_);
            if (dst != kInvalidId) {
                sim.request_migration(id, dst, now);
                unsat = 0;
            }
        } else if (v == big_ && sat >= cfg_.down_migrate_after &&
                   little_util < cfg_.little_headroom) {
            const CoreId dst = sched.least_loaded_core(little_);
            if (dst != kInvalidId) {
                sim.request_migration(id, dst, now);
                sat = 0;
            }
        }
    }
}

void
HpmGovernor::assign_nice(sim::Simulation& sim, SimTime now)
{
    // Demand-proportional shares within each core.
    for (CoreId c = 0; c < sim.chip().num_cores(); ++c) {
        // set_nice() leaves placements alone, so the live list holds.
        const auto& on_core = sim.scheduler().tasks_on(c);
        if (on_core.empty())
            continue;
        Pu max_demand = 0.0;
        auto& demand = demand_scratch_;
        demand.resize(on_core.size());
        for (std::size_t i = 0; i < on_core.size(); ++i) {
            demand[i] = sim.scheduler().task(on_core[i]).hrm()
                .estimate_demand(now, cfg_.demand_clamp);
            max_demand = std::max(max_demand, demand[i]);
        }
        if (max_demand <= 1e-9)
            continue;
        for (std::size_t i = 0; i < on_core.size(); ++i) {
            sim.scheduler().set_nice(
                on_core[i],
                sched::nice_for_relative_share(
                    std::max(1e-6, demand[i]), max_demand));
        }
    }
}

void
HpmGovernor::tick(sim::Simulation& sim, SimTime now, SimTime dt)
{
    (void)dt;
    // In safe mode (decided by the previous TDP evaluation) only the
    // TDP loop keeps running -- through the guard, so it both detects
    // recovery and holds the clamp; DVFS and LBT stand down.  Timers
    // still advance so control resumes on its normal cadence.
    if (now >= next_dvfs_) {
        next_dvfs_ = now + cfg_.dvfs_period;
        if (!guard_.safe_mode()) {
            run_dvfs(sim, cfg_.dvfs_period);
            assign_nice(sim, now);
        }
    }
    if (now >= next_tdp_) {
        next_tdp_ = now + cfg_.tdp_period;
        run_tdp(sim);
    }
    if (now >= next_lbt_) {
        next_lbt_ = now + cfg_.lbt_period;
        if (!guard_.safe_mode())
            run_lbt(sim, now);
    }
}

void
HpmGovernor::save(snap::Writer& w) const
{
    w(*this);
}

void
HpmGovernor::load(snap::Reader& r)
{
    r(*this);
}

} // namespace ppm::baselines
