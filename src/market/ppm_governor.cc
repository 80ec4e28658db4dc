#include "market/ppm_governor.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "hw/power_model.hh"
#include "metrics/telemetry.hh"
#include "sched/nice.hh"

namespace ppm::market {

PpmGovernor::PpmGovernor(PpmGovernorConfig cfg) : cfg_(std::move(cfg))
{
    PPM_ASSERT(cfg_.bid_period >= 0,
               "bid period must be positive or 0 (auto)");
    PPM_ASSERT(cfg_.lb_every_bids >= 1 && cfg_.mig_every_lbs >= 1,
               "LBT period multipliers must be >= 1");
}

Pu
PpmGovernor::estimate_demand_on(TaskId t, ClusterId v) const
{
    const TaskState& ts = std::as_const(*market_).task(t);
    const hw::Chip& chip = market_->chip();
    const hw::CoreClass from =
        chip.cluster(chip.cluster_of(ts.core)).type().core_class;
    const hw::CoreClass to = chip.cluster(v).type().core_class;
    if (from == to)
        return ts.demand;
    double speedup = PpmGovernorConfig::kDefaultSpeedup;
    if (online_ != nullptr) {
        // Own estimate, else converged peers' mean, else the default.
        speedup = online_->speedup(t);
    } else if (static_cast<std::size_t>(t) < cfg_.big_speedup.size() &&
               cfg_.big_speedup[static_cast<std::size_t>(t)] > 0.0) {
        speedup = cfg_.big_speedup[static_cast<std::size_t>(t)];
    }
    return to == hw::CoreClass::kBig ? ts.demand / speedup
                                     : ts.demand * speedup;
}

void
PpmGovernor::init(sim::Simulation& sim)
{
    sim_ = &sim;
    market_ = std::make_unique<Market>(&sim.chip(), cfg_.market);
    market_->set_dvfs_port(sim.dvfs_port());
    guard_.init(sim.chip().num_clusters(), sim.fault_injector());
    for (workload::Task* t : sim.tasks()) {
        market_->add_task(t->id(), t->priority(),
                          sim.scheduler().core_of(t->id()));
    }
    if (cfg_.online_speedup) {
        online_ = std::make_unique<OnlineSpeedupEstimator>(
            static_cast<int>(sim.tasks().size()), cfg_.online_params);
        residency_.assign(sim.tasks().size(), Residency{});
    }
    lbt_ = std::make_unique<LbtModule>(
        market_.get(),
        [this](TaskId t, ClusterId v) { return estimate_demand_on(t, v); });

    // Power-cost weights: watts per PU at full tilt, normalized to the
    // cheapest cluster (the paper's offline power profiles).
    std::vector<double> wpp;
    double min_wpp = 1e18;
    for (const auto& cl : sim.chip().clusters()) {
        const Watts pmax =
            hw::PowerModel::cluster_max_power(sim.chip(), cl.id());
        const double w = pmax
            / (cl.num_cores() * cl.vf().max_supply());
        wpp.push_back(w);
        min_wpp = std::min(min_wpp, w);
    }
    for (double& w : wpp)
        w /= min_wpp;
    lbt_->set_power_cost(std::move(wpp));

    // Bid period: explicit, or the paper's rule -- max(Linux
    // scheduling epoch, shortest task period), a task's period being
    // the reciprocal of its target heart rate.
    bid_period_ = cfg_.bid_period;
    if (bid_period_ == 0) {
        SimTime shortest = 1LL << 60;
        for (workload::Task* t : sim.tasks()) {
            const double hr = t->hrm().target_hr();
            if (hr > 0.0) {
                shortest = std::min(
                    shortest,
                    static_cast<SimTime>(kSecond / hr));
            }
        }
        bid_period_ = std::max(sched::kLinuxSchedEpoch, shortest);
        // Round up to the simulation tick.
        const SimTime tick = sim.config().tick;
        bid_period_ = (bid_period_ + tick - 1) / tick * tick;
    }

    // Start every cluster at its lowest V-F level (energy-first);
    // with DVFS disabled, pin the maximum instead so the ablation
    // measures placement quality rather than starvation.
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        hw::Cluster& cl = sim.chip().cluster(v);
        cl.set_level(cfg_.market.dvfs_enabled ? 0
                                              : cl.vf().levels() - 1);
    }
    sim.sensors().mark();
    next_bid_ = bid_period_;

    // Telemetry handles and field-key strings, resolved once so the
    // per-round emission in emit_telemetry() is allocation-free.
    metrics::TraceBus& bus = sim.bus();
    market_allowance_id_ = bus.intern("market_allowance");
    bid_freeze_id_ = bus.intern("bid_freeze_epochs");
    allowance_clamps_id_ = bus.intern("allowance_clamps");
    tasks_skipped_id_ = bus.intern("market.tasks_skipped");
    cores_skipped_id_ = bus.intern("market.cores_skipped");
    early_exit_id_ = bus.intern("market.rounds_early_exit");
    task_keys_.clear();
    for (const workload::Task* t : sim.tasks()) {
        const std::string p = "task" + std::to_string(t->id()) + "_";
        task_keys_.push_back(p + "bid");
        task_keys_.push_back(p + "supply");
        task_keys_.push_back(p + "demand");
        task_keys_.push_back(p + "savings");
        task_keys_.push_back(p + "allowance");
    }
    core_keys_.clear();
    core_keys_.reserve(
        static_cast<std::size_t>(sim.chip().num_cores()) * 3);
    for (CoreId c = 0; c < sim.chip().num_cores(); ++c) {
        const std::string p = "core" + std::to_string(c) + "_";
        core_keys_.push_back(p + "price");
        core_keys_.push_back(p + "base_price");
        core_keys_.push_back(p + "demand");
    }
    cluster_keys_.clear();
    cluster_keys_.reserve(
        static_cast<std::size_t>(sim.chip().num_clusters()) * 3);
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        const std::string p = "cluster" + std::to_string(v) + "_";
        cluster_keys_.push_back(p + "freeze");
        cluster_keys_.push_back(p + "level");
        cluster_keys_.push_back(p + "power_w");
    }
}

void
PpmGovernor::enact_nice(sim::Simulation& sim)
{
    // Two passes over the task agents instead of a tasks_on() vector
    // per core: first the per-core maximum purchased supply, then the
    // nice value of each task relative to its core's maximum.
    max_supply_scratch_.assign(
        static_cast<std::size_t>(sim.chip().num_cores()), 0.0);
    for (const TaskState& t : market_->tasks()) {
        if (!t.active)
            continue;
        Pu& m = max_supply_scratch_[static_cast<std::size_t>(t.core)];
        m = std::max(m, t.supply);
    }
    for (const TaskState& t : market_->tasks()) {
        if (!t.active)
            continue;
        const Pu max_supply =
            max_supply_scratch_[static_cast<std::size_t>(t.core)];
        if (max_supply <= 1e-9)
            continue;
        const Pu s = std::max(1e-6, t.supply);
        sim.scheduler().set_nice(
            t.id, sched::nice_for_relative_share(s, max_supply));
    }
}

void
PpmGovernor::apply_power_gating(sim::Simulation& sim)
{
    if (!cfg_.power_gate_idle)
        return;
    // One pass over the task agents marks populated clusters (no
    // tasks_on() vector per core).
    cluster_has_tasks_.assign(
        static_cast<std::size_t>(sim.chip().num_clusters()), 0);
    for (const TaskState& t : market_->tasks()) {
        if (t.active)
            cluster_has_tasks_[static_cast<std::size_t>(
                sim.chip().cluster_of(t.core))] = 1;
    }
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        const bool has_tasks =
            cluster_has_tasks_[static_cast<std::size_t>(v)] != 0;
        hw::Cluster& cl = sim.chip().cluster(v);
        if (has_tasks && !cl.powered()) {
            cl.set_powered(true);
            cl.set_level(0);
        } else if (!has_tasks && cl.powered()) {
            cl.set_powered(false);
        }
    }
}

void
PpmGovernor::bid_round(sim::Simulation& sim, SimTime now)
{
    // Sync task arrivals/exits, then read demands from the Heart
    // Rate Monitors (Table 4 conversion).
    for (workload::Task* t : sim.tasks()) {
        const bool alive = sim.scheduler().active(t->id());
        if (std::as_const(*market_).task(t->id()).active != alive)
            market_->set_task_active(t->id(), alive);
        if (!alive)
            continue;
        // Core offlining evacuates tasks behind the market's back;
        // resync before the round so bids land on the right ledger.
        const CoreId cur = sim.scheduler().core_of(t->id());
        if (std::as_const(*market_).task(t->id()).core != cur)
            market_->set_task_core(t->id(), cur);
        Pu demand = t->hrm().estimate_demand(now, cfg_.market.demand_clamp);
        if (!std::isfinite(demand))
            demand = 0.0;
        market_->set_demand(t->id(), demand);
        if (online_ != nullptr) {
            // Feed the online model only when the whole HRM window
            // lies on one core class: windows straddling a migration
            // would attribute the old class's cost to the new one.
            const CoreId c = sim.scheduler().core_of(t->id());
            const hw::CoreClass cls =
                sim.chip().cluster(sim.chip().cluster_of(c))
                    .type().core_class;
            auto& res = residency_[static_cast<std::size_t>(t->id())];
            if (cls != res.cls) {
                res.cls = cls;
                res.since = now;
            } else if (now - res.since >= kSecond) {
                online_->observe(t->id(), cls, t->hrm().supply(now),
                                 t->heart_rate(now));
            }
        }
    }
    // Power readings since the previous bid round (hwmon-style),
    // routed through the sensor guard: under injection a faulted
    // read is served from the last good value with a bounded age.
    for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
        market_->set_cluster_power(
            v, guard_.read_average(sim.sensors(), v, now));
    }
    sim.sensors().mark();
    guard_.update_safe_mode(now);
    if (guard_.safe_mode()) {
        // Readings too stale to price power: clamp every powered
        // cluster to the lowest V-F level and freeze the market (no
        // round, so allowances and bids stay at their last values).
        for (ClusterId v = 0; v < sim.chip().num_clusters(); ++v) {
            if (sim.chip().cluster(v).powered())
                sim.request_level(v, 0);
        }
        return;
    }

    market_->set_telemetry(sim.bus().enabled() ? &telemetry_ : nullptr);
    market_->round();
    if (!market_->sane()) {
        // Watchdog: the bidding round failed to converge to a finite
        // allocation; fall back to the previous cleared supplies.
        ++watchdog_trips_;
        if (fault::FaultInjector* inj = sim.fault_injector())
            inj->count_watchdog_trip();
        market_->sanitize(last_good_supplies_);
    } else {
        last_good_supplies_.resize(market_->tasks().size());
        for (std::size_t i = 0; i < market_->tasks().size(); ++i)
            last_good_supplies_[i] = market_->tasks()[i].supply;
    }
    if (sim.bus().enabled())
        emit_telemetry(sim, now);
    enact_nice(sim);
    apply_power_gating(sim);
}

void
PpmGovernor::emit_telemetry(sim::Simulation& sim, SimTime now)
{
    metrics::TraceBus& bus = sim.bus();
    const RoundReport& report = telemetry_.report;

    // Field layout and key strings were built at init; steady-state
    // rounds overwrite the values in place.
    round_event_.begin(now);
    round_event_.str("state", chip_state_name(report.state));
    round_event_.num("round", static_cast<double>(telemetry_.round))
        .num("chip_state", static_cast<double>(report.state))
        .num("allowance", report.allowance)
        .num("total_demand", report.total_demand)
        .num("total_supply", report.total_supply)
        .num("market_power_w", report.chip_power)
        .num("deficit", report.deficit);
    for (const TaskState& t : telemetry_.tasks) {
        // Direct deque indexing (no contiguous &keys[i] pointer
        // arithmetic): the deque's blocks keep each string -- and so
        // its c_str() identity -- stable across admissions.
        const std::size_t k = static_cast<std::size_t>(t.id) * 5;
        round_event_.num(task_keys_[k].c_str(), t.bid)
            .num(task_keys_[k + 1].c_str(), t.supply)
            .num(task_keys_[k + 2].c_str(), t.demand)
            .num(task_keys_[k + 3].c_str(), t.savings)
            .num(task_keys_[k + 4].c_str(), t.allowance);
    }
    for (const CoreState& c : telemetry_.cores) {
        const std::string* k =
            &core_keys_[static_cast<std::size_t>(c.id) * 3];
        round_event_.num(k[0].c_str(), c.price)
            .num(k[1].c_str(), c.base_price)
            .num(k[2].c_str(), c.demand);
    }
    for (const ClusterTelemetry& cl : telemetry_.clusters) {
        const std::string* k =
            &cluster_keys_[static_cast<std::size_t>(cl.id) * 3];
        round_event_.num(k[0].c_str(), cl.freeze_bids ? 1.0 : 0.0)
            .num(k[1].c_str(), static_cast<double>(cl.level))
            .num(k[2].c_str(), cl.power);
    }
    bus.event(round_event_.finish());
    bus.observe(market_allowance_id_, report.allowance);

    // Counters: a bid-freeze epoch starts on the freeze rising edge;
    // allowance clamps mark rounds pinned at the floor or ceiling.
    prev_freeze_.resize(telemetry_.clusters.size(), false);
    for (std::size_t v = 0; v < telemetry_.clusters.size(); ++v) {
        if (telemetry_.clusters[v].freeze_bids && !prev_freeze_[v])
            bus.count(bid_freeze_id_);
        prev_freeze_[v] = telemetry_.clusters[v].freeze_bids;
    }
    if (report.allowance_clamped)
        bus.count(allowance_clamps_id_);

    // Incremental-clearing skip counters.  The dirty-set bookkeeping
    // runs in both modes, so these deltas are identical with
    // incrementality on or off -- which is exactly what keeps golden
    // traces byte-identical across the escape hatch.
    if (report.tasks_skipped > 0)
        bus.count(tasks_skipped_id_, report.tasks_skipped);
    if (report.cores_skipped > 0)
        bus.count(cores_skipped_id_, report.cores_skipped);
    if (report.early_exit)
        bus.count(early_exit_id_);
}

void
PpmGovernor::set_power_budget(Watts w_tdp)
{
    cfg_.market.w_tdp = w_tdp;
    cfg_.market.w_th = derive_w_th(w_tdp);
    if (market_ != nullptr)
        market_->set_tdp(cfg_.market.w_tdp, cfg_.market.w_th);
}

double
PpmGovernor::power_deficit() const
{
    return market_ != nullptr ? market_->last_report().deficit : 0.0;
}

void
PpmGovernor::task_admitted(sim::Simulation& sim, TaskId id,
                           double big_speedup)
{
    PPM_ASSERT(market_ != nullptr, "task admitted before init");
    if (online_ != nullptr) {
        online_->grow(static_cast<int>(sim.tasks().size()));
        // The residency gate starts at admission: the task's first
        // online observation waits out a full window on one class.
        while (residency_.size() < sim.tasks().size()) {
            Residency res;
            res.since = sim.now();
            residency_.push_back(res);
        }
    }
    market_->add_task(id, sim.tasks()[static_cast<std::size_t>(id)]
                              ->priority(),
                      sim.scheduler().core_of(id));
    if (cfg_.big_speedup.size() <= static_cast<std::size_t>(id))
        cfg_.big_speedup.resize(static_cast<std::size_t>(id) + 1, 0.0);
    cfg_.big_speedup[static_cast<std::size_t>(id)] = big_speedup;
    const std::string p = "task" + std::to_string(id) + "_";
    task_keys_.push_back(p + "bid");
    task_keys_.push_back(p + "supply");
    task_keys_.push_back(p + "demand");
    task_keys_.push_back(p + "savings");
    task_keys_.push_back(p + "allowance");
}

void
PpmGovernor::lbt_round(sim::Simulation& sim, SimTime now, bool migration)
{
    Movement mv = migration ? lbt_->propose_migration()
                            : lbt_->propose_load_balance();
    if (!mv.valid() && migration)
        mv = lbt_->propose_load_balance();
    if (!mv.valid())
        return;

    // Never move onto an offlined core (the LBT module only sees
    // cluster supplies, not per-core availability).
    if (!sim.chip().core_online(mv.to))
        return;

    // Ensure the destination cluster is powered before moving.
    hw::Cluster& dst = sim.chip().cluster(sim.chip().cluster_of(mv.to));
    if (!dst.powered()) {
        dst.set_powered(true);
        dst.set_level(0);
    }
    if (!sim.request_migration(mv.task, mv.to, now))
        return;  // Migration fault: queued for retry, ledger untouched.
    market_->set_task_core(mv.task, mv.to);
}

void
PpmGovernor::tick(sim::Simulation& sim, SimTime now, SimTime dt)
{
    (void)dt;
    if (now < next_bid_)
        return;
    next_bid_ = now + bid_period_;
    ++bid_count_;
    bid_round(sim, now);

    if (!cfg_.enable_lbt || guard_.safe_mode())
        return;
    const long lb_period = cfg_.lb_every_bids;
    const long mig_period =
        static_cast<long>(cfg_.lb_every_bids) * cfg_.mig_every_lbs;
    if (bid_count_ % mig_period == 0)
        lbt_round(sim, now, /*migration=*/true);
    else if (bid_count_ % lb_period == 0)
        lbt_round(sim, now, /*migration=*/false);
}

} // namespace ppm::market
