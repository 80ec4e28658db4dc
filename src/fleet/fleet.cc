#include "fleet/fleet.hh"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "snapshot/archive.hh"

namespace ppm::fleet {

namespace {

/** Placement attempts per evacuated task before it parks in the
 *  pending queue until the next recovery (backoff doubles per failed
 *  attempt, starting at one epoch). */
constexpr int kEvacMaxRetries = 8;

} // namespace

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
    } else {
        owned_pool_ = ThreadPool::for_threads(cfg_.jobs);
        pool_ = owned_pool_.get();
    }

    const Watts initial = supervisor_.initial_budget();
    budgets_.assign(static_cast<std::size_t>(cfg_.chips), initial);
    signals_.assign(static_cast<std::size_t>(cfg_.chips), ChipSignal{});
    placements_.assign(cfg_.floating.size(), -1);

    health_.assign(static_cast<std::size_t>(cfg_.chips), 0);
    clamp_.assign(static_cast<std::size_t>(cfg_.chips), 1.0);
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
    // Health-aware settlement: failed chips are withdrawn (they get
    // the quarantine floor), degraded chips get their budget clamped.
    // With every chip healthy this runs the unmasked arithmetic.
    active_scratch_.resize(health_.size());
    for (std::size_t i = 0; i < health_.size(); ++i)
        active_scratch_[i] = health_[i] != 2 ? 1 : 0;
    if (!supervisor_.settle(signals_, &active_scratch_, &clamp_))
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
        // Post-settle prices; within one barrier the prices do not
        // move, so a batch of simultaneous arrivals lands on the same
        // cheapest chip and the next settlement redistributes budget.
        // A rejected task stays floating and retries at the next
        // barrier.
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
        // Before the first settle: lowest-id surviving chip.
        for (std::size_t i = 0; i < health_.size(); ++i) {
            if (health_[i] != 2) {
                winner = static_cast<int>(i);
                break;
            }
        }
    }
    if (winner < 0)
        return false;  // Whole fleet is down.
    const TaskId id = shards_[static_cast<std::size_t>(winner)]
                          ->try_admit_task(spec, {now_, departure},
                                           big_speedup);
    if (id == kInvalidId)
        return false;  // Rejection already counted on the shard.
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
            // Freed capacity: wake every parked evacuation for an
            // immediate retry (drained in seq order below).
            for (PendingEvac& p : pending_evac_) {
                p.retries_left = kEvacMaxRetries;
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
        p.retries_left = kEvacMaxRetries;
        p.next_try = now_;
        p.backoff = cfg_.epoch;
        pending_evac_.push_back(p);
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
    if (!cfg_.fleet_faults.empty()) {
        // Health cannot move without a fault plan, so fault-free runs
        // leave the health series out and keep their traces' bytes.
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
    apply_fleet_faults();
    settle_barrier();
    drain_pending();
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
        sim::RunSummary::fields([&](sim::RunSummary::Merge merge,
                                    auto field) {
            auto& acc = c.*field;
            for (const sim::RunSummary& s : r.per_chip) {
                const auto& x = s.*field;
                if constexpr (std::is_same_v<std::remove_cvref_t<decltype(x)>,
                                             std::vector<double>>)
                    acc.insert(acc.end(), x.begin(), x.end());
                else if (merge == sim::RunSummary::kShare)
                    acc += x / n;
                else if (merge == sim::RunSummary::kPeak)
                    acc = std::max(acc, x);
                else
                    acc += x;
            }
        });
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

void
Fleet::save(snap::Writer& w) const
{
    w(*this);
}

void
Fleet::load(snap::Reader& r)
{
    r(*this);
}

} // namespace ppm::fleet
