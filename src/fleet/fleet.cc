#include "fleet/fleet.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace ppm::fleet {

Fleet::Fleet(FleetConfig cfg)
    : cfg_(std::move(cfg)), supervisor_(cfg_.supervisor, cfg_.chips)
{
    PPM_ASSERT(cfg_.chips >= 1, "fleet needs at least one chip");
    PPM_ASSERT(cfg_.make_chip != nullptr, "fleet needs a chip factory");
    PPM_ASSERT(cfg_.make_governor != nullptr,
               "fleet needs a governor factory");
    PPM_ASSERT(cfg_.workloads.size() ==
                   static_cast<std::size_t>(cfg_.chips),
               "fleet needs one workload per chip");
    PPM_ASSERT(cfg_.epoch > 0 && cfg_.epoch % cfg_.sim.tick == 0,
               "supervisor epoch must be a positive multiple of the tick");
    PPM_ASSERT(cfg_.sim.duration > 0, "fleet duration must be positive");

    if (cfg_.pool != nullptr) {
        pool_ = cfg_.pool;
    } else if (cfg_.jobs != 1) {
        owned_pool_ = std::make_unique<ThreadPool>(cfg_.jobs);
        pool_ = owned_pool_.get();
    }

    const Watts initial = supervisor_.initial_budget();
    budgets_.assign(static_cast<std::size_t>(cfg_.chips), initial);
    signals_.assign(static_cast<std::size_t>(cfg_.chips), ChipSignal{});
    placements_.assign(cfg_.floating.size(), -1);

    // Fleet fault tolerance: latched once here.  When off, every
    // barrier takes the exact pre-existing code path, so fault-free
    // configurations stay byte-identical.
    fault_handling_ = !cfg_.fleet_faults.empty() ||
        cfg_.deficit_watchdog_epochs > 0;
    health_.assign(static_cast<std::size_t>(cfg_.chips), 0);
    clamp_.assign(static_cast<std::size_t>(cfg_.chips), 1.0);
    deficit_streak_.assign(static_cast<std::size_t>(cfg_.chips), 0);
    roster_.resize(static_cast<std::size_t>(cfg_.chips));
    for (int i = 0; i < cfg_.chips; ++i) {
        for (const auto& spec :
             cfg_.workloads[static_cast<std::size_t>(i)].specs)
            roster_[static_cast<std::size_t>(i)].push_back({spec, 0.0});
    }

    shards_.reserve(static_cast<std::size_t>(cfg_.chips));
    for (int i = 0; i < cfg_.chips; ++i) {
        const auto& wl = cfg_.workloads[static_cast<std::size_t>(i)];
        PPM_ASSERT(!wl.specs.empty(),
                   "every chip needs at least one pinned task");
        sim::SimConfig sc = cfg_.sim;
        sc.placement = wl.placement;
        sc.lifetimes = wl.lifetimes;
        shards_.push_back(std::make_unique<sim::Simulation>(
            cfg_.make_chip(i), wl.specs, cfg_.make_governor(i, initial),
            sc));
    }

    next_barrier_ = cfg_.epoch;

    // Interned fleet.* handles; like Simulation, interning is
    // sink-independent, so handles stay valid for sinks attached
    // later (before run()).
    for (int i = 0; i < cfg_.chips; ++i) {
        const std::string p = "fleet.chip" + std::to_string(i) + ".";
        chip_power_ids_.push_back(bus_.intern(p + "power_w"));
        chip_budget_ids_.push_back(bus_.intern(p + "budget_w"));
        chip_price_ids_.push_back(bus_.intern(p + "price"));
        chip_deficit_ids_.push_back(bus_.intern(p + "deficit"));
        chip_state_ids_.push_back(bus_.intern(p + "state"));
    }
    fleet_power_id_ = bus_.intern("fleet.power_w");
    fleet_budget_id_ = bus_.intern("fleet.budget_w");
    admitted_id_ = bus_.intern("fleet.admitted");
    evacuations_id_ = bus_.intern("fleet.evacuations");
    evac_landed_id_ = bus_.intern("fleet.evac_landed");
    evac_pending_id_ = bus_.intern("fleet.evac_pending");
    rejections_id_ = bus_.intern("fleet.rejections");
    chip_failures_id_ = bus_.intern("fleet.chip_failures");
    chip_recoveries_id_ = bus_.intern("fleet.chip_recoveries");
    watchdog_id_ = bus_.intern("fleet.watchdog_trips");
}

Fleet::~Fleet() = default;

sim::Simulation&
Fleet::shard(int i)
{
    PPM_ASSERT(i >= 0 && i < chips(), "chip id out of range");
    return *shards_[static_cast<std::size_t>(i)];
}

void
Fleet::settle_barrier()
{
    // Gather in chip-id order on the control thread: both reads are
    // pure observations of the sharded state.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        signals_[i].power = shards_[i]->sensors().instantaneous_chip();
        signals_[i].deficit = shards_[i]->governor().power_deficit();
    }
    bool settled;
    if (fault_handling_) {
        // Health-aware settlement: failed chips are withdrawn (they
        // get the quarantine floor), degraded chips get their budget
        // clamped.  With every chip healthy this runs the identical
        // arithmetic to the legacy call.
        active_scratch_.resize(health_.size());
        for (std::size_t i = 0; i < health_.size(); ++i)
            active_scratch_[i] = health_[i] != 2 ? 1 : 0;
        settled = supervisor_.settle(signals_, &active_scratch_, &clamp_);
    } else {
        settled = supervisor_.settle(signals_);
    }
    if (!settled)
        return;  // Uncapped fleet: budgets never move.
    const std::vector<Watts>& next = supervisor_.budgets();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        // Only push *changed* budgets: re-applying an identical
        // budget would still rewrite the governor's thresholds
        // through derive_w_th(), and a 1-chip fleet must leave its
        // governor's exact configured bits alone.
        if (next[i] == budgets_[i])
            continue;
        budgets_[i] = next[i];
        shards_[i]->governor().set_power_budget(next[i]);
    }
}

void
Fleet::admit_floating()
{
    for (std::size_t f = 0; f < cfg_.floating.size(); ++f) {
        if (placements_[f] != -1)
            continue;
        const FloatingTask& task = cfg_.floating[f];
        if (task.arrival > now_)
            continue;
        if (fault_handling_) {
            // Health- and admission-aware placement; a rejected task
            // stays floating and retries at the next barrier.
            int chip = kInvalidId;
            if (place_task(task.spec, task.big_speedup, task.departure,
                           &chip)) {
                placements_[f] = chip;
                ++admitted_;
                bus_.count(admitted_id_);
            } else {
                ++rejections_;
                bus_.count(rejections_id_);
            }
            continue;
        }
        // Post-settle prices; within one barrier the prices do not
        // move, so a batch of simultaneous arrivals lands on the same
        // cheapest chip and the next settlement redistributes budget.
        int winner = supervisor_.cheapest_chip();
        if (winner < 0)
            winner = 0;  // Before the first settle: chip 0.
        shards_[static_cast<std::size_t>(winner)]->admit_task(
            task.spec, {now_, task.departure}, task.big_speedup);
        placements_[f] = winner;
        ++admitted_;
        bus_.count(admitted_id_);
    }
}

bool
Fleet::place_task(const workload::TaskSpec& spec, double big_speedup,
                  SimTime departure, int* chip_out)
{
    active_scratch_.resize(health_.size());
    for (std::size_t i = 0; i < health_.size(); ++i)
        active_scratch_[i] = health_[i] != 2 ? 1 : 0;
    int winner = supervisor_.cheapest_chip(&active_scratch_);
    if (winner < 0) {
        // Before the first settle: lowest-id surviving chip (the
        // all-healthy case degenerates to the legacy "chip 0").
        for (std::size_t i = 0; i < health_.size(); ++i) {
            if (health_[i] != 2) {
                winner = static_cast<int>(i);
                break;
            }
        }
    }
    if (winner < 0)
        return false;  // Whole fleet is down.
    sim::AdmitReject why = sim::AdmitReject::kNone;
    const TaskId id = shards_[static_cast<std::size_t>(winner)]
                          ->try_admit_task(spec, {now_, departure},
                                           big_speedup, kInvalidId, &why);
    if (id == kInvalidId)
        return false;  // Typed rejection already counted on the shard.
    roster_[static_cast<std::size_t>(winner)].push_back(
        {spec, big_speedup});
    if (chip_out != nullptr)
        *chip_out = winner;
    return true;
}

void
Fleet::apply_fleet_faults()
{
    const auto& events = cfg_.fleet_faults.events();
    while (next_fleet_event_ < events.size() &&
           events[next_fleet_event_].time <= now_) {
        const fault::FleetFaultEvent& ev = events[next_fleet_event_++];
        const auto i = static_cast<std::size_t>(ev.chip);
        PPM_ASSERT(i < health_.size(), "fleet fault names unknown chip");
        switch (ev.kind) {
        case fault::FleetFaultKind::kChipFail:
            if (health_[i] == 2)
                break;  // Already down.
            health_[i] = 2;
            ++chip_failures_;
            bus_.count(chip_failures_id_);
            evacuate_chip(i);
            break;
        case fault::FleetFaultKind::kChipDegrade:
            if (health_[i] == 2)
                break;  // Failure dominates.
            health_[i] = 1;
            clamp_[i] = ev.factor;
            break;
        case fault::FleetFaultKind::kChipRecover:
            if (health_[i] == 0)
                break;
            ++chip_recoveries_;
            bus_.count(chip_recoveries_id_);
            health_[i] = 0;
            clamp_[i] = 1.0;
            deficit_streak_[i] = 0;
            // Freed capacity: wake every parked evacuation for an
            // immediate retry (drained in seq order below).
            for (PendingEvac& p : pending_evac_) {
                p.retries_left = cfg_.evac_max_retries;
                p.next_try = now_;
                p.backoff = cfg_.epoch;
            }
            break;
        }
    }
    bool all_failed = !health_.empty();
    for (unsigned char h : health_) {
        if (h != 2)
            all_failed = false;
    }
    if (all_failed)
        all_failed_seen_ = true;
}

void
Fleet::evacuate_chip(std::size_t chip)
{
    // Pull every task still inside its lifetime window off the chip,
    // in task-id order: deterministic, and exactly the set of tasks
    // whose work would be lost.  The shard itself keeps simulating
    // (barrier-aligned) with an empty run queue and a floor budget.
    sim::Simulation& shard = *shards_[chip];
    const auto& entries = roster_[chip];
    for (TaskId t = 0; t < static_cast<TaskId>(entries.size()); ++t) {
        if (!shard.task_alive(t))
            continue;  // Departed, not yet arrived, or already evacuated.
        const auto& lives = shard.config().lifetimes;
        const SimTime departure = lives.empty()
            ? sim::SimConfig::Lifetime::kForever
            : lives[static_cast<std::size_t>(t)].departure;
        shard.set_task_departure(t, now_);
        ++evacuations_;
        bus_.count(evacuations_id_);
        PendingEvac p;
        p.seq = evac_seq_++;
        p.spec = entries[static_cast<std::size_t>(t)].spec;
        p.big_speedup = entries[static_cast<std::size_t>(t)].big_speedup;
        p.departure = departure;
        p.retries_left = cfg_.evac_max_retries;
        p.next_try = now_;
        p.backoff = cfg_.epoch;
        pending_evac_.push_back(p);
    }
}

void
Fleet::run_deficit_watchdog()
{
    if (cfg_.deficit_watchdog_epochs <= 0)
        return;
    for (std::size_t i = 0; i < health_.size(); ++i) {
        if (health_[i] == 2) {
            deficit_streak_[i] = 0;
            continue;
        }
        if (signals_[i].deficit > 0.0)
            ++deficit_streak_[i];
        else
            deficit_streak_[i] = 0;
        if (deficit_streak_[i] >= cfg_.deficit_watchdog_epochs &&
            health_[i] == 0) {
            // Persistent clearing deficit is a health signal: the
            // chip cannot clear what it already has, so clamp its
            // budget until it recovers (deficit drops) or a
            // chip-recover event clears the mark.
            health_[i] = 1;
            clamp_[i] = cfg_.watchdog_clamp;
            ++fleet_watchdog_trips_;
            bus_.count(watchdog_id_);
            deficit_streak_[i] = 0;
        }
    }
}

void
Fleet::drain_pending()
{
    // Seq order == task-id order within each evacuation batch; erase
    // keeps the vector sorted by seq.
    for (auto it = pending_evac_.begin(); it != pending_evac_.end();) {
        if (it->next_try > now_) {
            ++it;
            continue;
        }
        int chip = kInvalidId;
        if (place_task(it->spec, it->big_speedup, it->departure,
                       &chip)) {
            ++evac_landed_;
            bus_.count(evac_landed_id_);
            it = pending_evac_.erase(it);
            continue;
        }
        ++rejections_;
        bus_.count(rejections_id_);
        if (--it->retries_left <= 0) {
            // Bounded retries exhausted: park until the next
            // chip-recover event wakes the queue.
            it->next_try = sim::SimConfig::Lifetime::kForever;
        } else {
            it->next_try = now_ + it->backoff;
            it->backoff *= 2;  // Doubling backoff.
        }
        ++it;
    }
}

void
Fleet::sample_barrier()
{
    if (!bus_.enabled())
        return;
    Watts fleet_power = 0.0;
    Watts fleet_budget = 0.0;
    const std::vector<double>& prices = supervisor_.prices();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        bus_.sample(chip_power_ids_[i], now_, signals_[i].power);
        bus_.sample(chip_budget_ids_[i], now_, budgets_[i]);
        bus_.sample(chip_price_ids_[i], now_, prices[i]);
        bus_.sample(chip_deficit_ids_[i], now_, signals_[i].deficit);
        fleet_power += signals_[i].power;
        fleet_budget += budgets_[i];
    }
    bus_.sample(fleet_power_id_, now_, fleet_power);
    bus_.sample(fleet_budget_id_, now_, fleet_budget);
    if (fault_handling_) {
        // Health telemetry only exists once the fault machinery is
        // on, so fault-free runs keep byte-identical traces.
        for (std::size_t i = 0; i < shards_.size(); ++i)
            bus_.sample(chip_state_ids_[i], now_,
                        static_cast<double>(health_[i]));
        bus_.sample(evac_pending_id_, now_,
                    static_cast<double>(pending_evac_.size()));
    }
}

bool
Fleet::run_epoch()
{
    if (done_)
        return false;
    const SimTime stop = std::min(next_barrier_, cfg_.sim.duration);

    // Fan the shards out one per chunk; boundaries depend only on the
    // chip count, and each shard's state is disjoint, so any worker
    // count -- including none -- produces identical shard states at
    // the barrier.
    ThreadPool::for_chunks(
        pool_, shards_.size(), 1,
        [this, stop](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                shards_[i]->run_until(stop);
        });
    now_ = stop;

    // Batched cross-shard settlement, all on the control thread in
    // chip-id order.  Chip-scope faults land first (they are compiled
    // onto the barrier grid), so a failed chip's budget is withdrawn
    // from the very settlement at its failure barrier.
    if (fault_handling_)
        apply_fleet_faults();
    settle_barrier();
    if (fault_handling_) {
        run_deficit_watchdog();
        drain_pending();
    }
    admit_floating();
    sample_barrier();

    next_barrier_ += cfg_.epoch;
    done_ = now_ >= cfg_.sim.duration;
    return !done_;
}

FleetResult
Fleet::run()
{
    while (run_epoch()) {
    }
    FleetResult r;
    r.per_chip.reserve(shards_.size());
    for (auto& shard : shards_)
        r.per_chip.push_back(shard->finish());
    r.final_budgets = budgets_;
    r.supervisor_epochs = supervisor_.epochs();
    r.admitted = admitted_;
    r.placements = placements_;
    r.chip_failures = chip_failures_;
    r.chip_recoveries = chip_recoveries_;
    r.evacuations = evacuations_;
    r.evac_landed = evac_landed_;
    r.evac_pending_end = static_cast<long>(pending_evac_.size());
    r.rejections = rejections_;
    r.fleet_watchdog_trips = fleet_watchdog_trips_;
    r.all_chips_failed = all_failed_seen_;
    r.final_health.reserve(health_.size());
    for (unsigned char h : health_)
        r.final_health.push_back(static_cast<int>(h));

    if (shards_.size() == 1) {
        // Verbatim: a 1-chip fleet IS its single simulation.
        r.combined = r.per_chip[0];
    } else {
        sim::RunSummary& c = r.combined;
        const double n = static_cast<double>(r.per_chip.size());
        c.governor = r.per_chip[0].governor;
        for (const sim::RunSummary& s : r.per_chip) {
            c.any_below_miss += s.any_below_miss / n;
            c.any_outside_miss += s.any_outside_miss / n;
            c.avg_power += s.avg_power;
            c.avg_power_post_warmup += s.avg_power_post_warmup;
            c.energy += s.energy;
            c.migrations += s.migrations;
            c.vf_transitions += s.vf_transitions;
            c.over_tdp_fraction += s.over_tdp_fraction / n;
            c.over_tdp_post_warmup += s.over_tdp_post_warmup / n;
            c.peak_temp_c = std::max(c.peak_temp_c, s.peak_temp_c);
            c.thermal_cycles += s.thermal_cycles;
            c.task_below.insert(c.task_below.end(),
                                s.task_below.begin(),
                                s.task_below.end());
            c.task_outside.insert(c.task_outside.end(),
                                  s.task_outside.begin(),
                                  s.task_outside.end());
            c.faults_injected += s.faults_injected;
            c.sensor_fallbacks += s.sensor_fallbacks;
            c.fault_retries += s.fault_retries;
            c.safe_mode_entries += s.safe_mode_entries;
            c.watchdog_trips += s.watchdog_trips;
            c.safe_mode_seconds += s.safe_mode_seconds;
            c.over_tdp_during_fault += s.over_tdp_during_fault / n;
            c.market_rounds += s.market_rounds;
            c.market_task_slots += s.market_task_slots;
            c.market_tasks_skipped += s.market_tasks_skipped;
            c.market_core_slots += s.market_core_slots;
            c.market_cores_skipped += s.market_cores_skipped;
            c.market_rounds_early_exit += s.market_rounds_early_exit;
        }
    }

    if (bus_.enabled()) {
        metrics::TraceEvent e("counters", now_);
        for (const auto& [name, value] : bus_.counters())
            e.set(name, static_cast<double>(value));
        bus_.event(e);
        bus_.flush();
    }
    return r;
}

} // namespace ppm::fleet
