#include "sim/simulation.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "snapshot/archive.hh"

namespace ppm::sim {

const char*
horizon_cap_name(EngineStats::Cap cap)
{
    switch (cap) {
    case EngineStats::kWake:
        return "wake";
    case EngineStats::kLifetime:
        return "lifetime";
    case EngineStats::kUnblock:
        return "unblock";
    case EngineStats::kPhase:
        return "phase";
    case EngineStats::kTrace:
        return "trace";
    case EngineStats::kFault:
        return "fault";
    case EngineStats::kWarmup:
        return "warmup";
    case EngineStats::kRunUntil:
        return "run_until";
    case EngineStats::kDuration:
        return "duration";
    case EngineStats::kNumCaps:
        break;
    }
    return "?";
}

Simulation::Simulation(hw::Chip chip,
                       const std::vector<workload::TaskSpec>& specs,
                       std::unique_ptr<Governor> governor, SimConfig config)
    : chip_(std::move(chip)), sensors_(chip_.num_clusters()),
      governor_(std::move(governor)), config_(config),
      qos_(static_cast<int>(specs.size()))
{
    PPM_ASSERT(!specs.empty(), "simulation needs at least one task");
    PPM_ASSERT(governor_ != nullptr, "simulation needs a governor");
    scheduler_ = std::make_unique<sched::Scheduler>(&chip_,
                                                    hw::MigrationModel{});
    // Place tasks on the configured cores, or round-robin on
    // cluster 0 (the boot cluster).
    PPM_ASSERT(config_.placement.empty() ||
                   config_.placement.size() == specs.size(),
               "placement must name one core per task");
    PPM_ASSERT(config_.lifetimes.empty() ||
                   config_.lifetimes.size() == specs.size(),
               "lifetimes must name one window per task");
    const auto& boot_cores = chip_.cluster(0).cores();
    TaskId next_id = 0;
    for (const auto& spec : specs) {
        owned_tasks_.push_back(
            std::make_unique<workload::Task>(next_id, spec));
        const CoreId core = config_.placement.empty()
            ? boot_cores[static_cast<std::size_t>(next_id)
                         % boot_cores.size()]
            : config_.placement[static_cast<std::size_t>(next_id)];
        scheduler_->add_task(owned_tasks_.back().get(), core);
        ++next_id;
    }
    for (const auto& cl : chip_.clusters())
        last_levels_.push_back(cl.level());

    // Fault layer: only instantiated for a non-empty plan, so clean
    // runs keep a null injector and an untouched hot path.
    if (!config_.faults.empty())
        injector_ = std::make_unique<fault::FaultInjector>(
            config_.faults, &chip_, scheduler_.get(), &bus_);

    // Thermal model: explicit parameters, the TC2 calibration for the
    // default 2-cluster chip, or a generic per-cluster sizing that
    // puts each cluster's power peak near 80 deg C.
    hw::ThermalParams thermal = config_.thermal;
    if (thermal.nodes.empty()) {
        if (chip_.num_clusters() == 2) {
            thermal = hw::ThermalModel::tc2_defaults();
        } else {
            thermal.ambient_c = 30.0;
            for (ClusterId v = 0; v < chip_.num_clusters(); ++v) {
                const Watts pmax =
                    hw::PowerModel::cluster_max_power(chip_, v);
                const double r = 50.0 / std::max(0.5, pmax);
                thermal.nodes.push_back({r, 10.0 / r});
            }
        }
    }
    thermal_ = std::make_unique<hw::ThermalModel>(thermal);

    // The classic in-memory trace path: config.trace routes every
    // bus record into recorder_ (callers may attach further sinks).
    if (config_.trace)
        bus_.add_sink(std::make_unique<metrics::MemorySink>(&recorder_));

    // Cached task views: step() and the governors walk these every
    // tick, so build the vector once.
    task_views_.reserve(owned_tasks_.size());
    for (auto& t : owned_tasks_)
        task_views_.push_back(t.get());
    span_hits_.resize(owned_tasks_.size());

    // Intern every series/counter name this simulation can emit.
    // Interning is independent of attached sinks, so handles resolved
    // here stay valid for sinks attached later (before run()).
    chip_power_id_ = bus_.intern("chip_power_w");
    migrations_id_ = bus_.intern("migrations");
    admission_reject_id_ = bus_.intern("admission_rejections");
    for (const auto& cl : chip_.clusters()) {
        const std::string prefix =
            "cluster" + std::to_string(cl.id());
        cluster_mhz_ids_.push_back(bus_.intern(prefix + "_mhz"));
        cluster_temp_ids_.push_back(bus_.intern(prefix + "_temp_c"));
        vf_step_ids_.push_back(
            bus_.intern("vf_steps_" + prefix));
    }
    for (auto& t : owned_tasks_) {
        task_hr_ids_.push_back(bus_.intern(t->name() + "_hr"));
        task_norm_hr_ids_.push_back(
            bus_.intern(t->name() + "_norm_hr"));
    }
}

bool
Simulation::task_alive(TaskId t) const
{
    PPM_ASSERT(t >= 0 &&
                   static_cast<std::size_t>(t) < owned_tasks_.size(),
               "task id out of range");
    if (config_.lifetimes.empty())
        return true;
    const auto& life = config_.lifetimes[static_cast<std::size_t>(t)];
    return now_ >= life.arrival && now_ < life.departure;
}

void
Simulation::apply_lifetimes()
{
    if (config_.lifetimes.empty())
        return;
    for (TaskId t = 0;
         t < static_cast<TaskId>(owned_tasks_.size()); ++t) {
        const bool alive = task_alive(t);
        if (scheduler_->active(t) != alive)
            scheduler_->set_active(t, alive);
    }
}

Watts
Simulation::evaluate_power()
{
    power_scratch_.clear();
    Watts chip_w = 0.0;
    for (const auto& cl : chip_.clusters()) {
        util_scratch_.clear();
        for (CoreId c : cl.cores())
            util_scratch_.push_back(scheduler_->core_utilization(c));
        power_scratch_.push_back(
            hw::PowerModel::cluster_power(chip_, cl.id(), util_scratch_));
        chip_w += power_scratch_.back();
    }
    return chip_w;
}

void
Simulation::advance_platform(long n)
{
    const SimTime dt = config_.tick;
    for (const auto& cl : chip_.clusters())
        sensors_.record(cl.id(),
                        power_scratch_[static_cast<std::size_t>(cl.id())],
                        dt, n);
    thermal_->advance(power_scratch_, dt, n);
    const bool over =
        sensors_.instantaneous_chip() > config_.tdp_for_metrics;
    over_tdp_.add(over, n * dt);
    // The post-warmup counter covers exactly the QoS window (the
    // tracker counts ticks with now + dt >= warmup; an interval lies
    // wholly before the edge or wholly past it).
    if (now_ + dt >= config_.warmup)
        over_tdp_post_.add(over, n * dt);
    if (injector_ != nullptr && injector_->any_fault_active(now_))
        over_tdp_fault_.add(over, n * dt);
}

void
Simulation::sample_traces()
{
    if (!bus_.enabled() || config_.trace_period <= 0)
        return;
    if (now_ < next_trace_)
        return;
    next_trace_ = now_ + config_.trace_period;
    const Watts chip_power = sensors_.instantaneous_chip();
    bus_.sample(chip_power_id_, now_, chip_power);
    bus_.observe(chip_power_id_, chip_power);
    for (const auto& cl : chip_.clusters()) {
        const auto v = static_cast<std::size_t>(cl.id());
        bus_.sample(cluster_mhz_ids_[v], now_, cl.mhz());
        bus_.sample(cluster_temp_ids_[v], now_,
                    thermal_->temperature(cl.id()));
    }
    for (std::size_t t = 0; t < owned_tasks_.size(); ++t) {
        // A task with an unset reference range (target 0) has no
        // normalization; record its raw heart rate instead of an
        // inf/nan-poisoned series.
        const workload::Task& task = *owned_tasks_[t];
        const double target = task.hrm().target_hr();
        const double hr = task.heart_rate(now_);
        if (target > 0.0)
            bus_.sample(task_norm_hr_ids_[t], now_, hr / target);
        else
            bus_.sample(task_hr_ids_[t], now_, hr);
    }
}

void
Simulation::step()
{
    if (!initialized_) {
        governor_->init(*this);
        initialized_ = true;
    }
    const SimTime dt = config_.tick;
    // Snapshot energy/time just before the first tick the QoS tracker
    // counts (it samples once `now + dt >= warmup`), so summary() can
    // report post-warmup average power over exactly the QoS window.
    if (!warmup_snapshotted_ && now_ + dt >= config_.warmup) {
        warmup_energy_ = sensors_.chip_energy();
        warmup_end_ = now_;
        warmup_snapshotted_ = true;
    }
    apply_lifetimes();
    if (injector_ != nullptr)
        injector_->tick(now_);
    governor_->tick(*this, now_, dt);
    if (config_.macro_step) {
        look_up_slots();
        scheduler_->replay_tick(now_, dt);
    } else {
        scheduler_->tick(now_, dt);
    }
    ++stats_.step_ticks;
    evaluate_power();
    advance_platform(1);

    // Count V-F transitions.
    for (std::size_t v = 0; v < last_levels_.size(); ++v) {
        const int level = chip_.cluster(static_cast<ClusterId>(v)).level();
        if (level != last_levels_[v]) {
            ++vf_transitions_;
            bus_.count(vf_step_ids_[v]);
            last_levels_[v] = level;
        }
    }

    // Telemetry counters for scheduler-driven migrations.
    const long migs = scheduler_->migrations();
    if (migs != last_migrations_) {
        bus_.count(migrations_id_, migs - last_migrations_);
        last_migrations_ = migs;
    }

    now_ += dt;
    qos_.sample(task_views_, now_, dt, config_.warmup, alive_mask());
    sample_traces();
}

bool
Simulation::look_up_slots()
{
    if (scheduler_->begin_replay(now_, config_.tick))
        ++stats_.cache_hits;
    else
        ++stats_.cache_misses;
    // A rest grant holds only on the slots and the latched bulk
    // verdict it was given on, and a miss drops the verdict.
    if (!rest_ || scheduler_->bulk_latched())
        return false;
    rest_ = false;
    return true;
}

const std::vector<bool>*
Simulation::alive_mask()
{
    if (config_.lifetimes.empty())
        return nullptr;
    alive_scratch_.assign(task_views_.size(), false);
    for (TaskId t = 0; t < static_cast<TaskId>(task_views_.size()); ++t)
        alive_scratch_[static_cast<std::size_t>(t)] = task_alive(t);
    return &alive_scratch_;
}

Simulation::Horizon
Simulation::quiescent_ticks() const
{
    if (!initialized_ || now_ >= config_.duration)
        return {};
    if (!governor_->quiescent(*this))
        return {};
    const SimTime dt = config_.tick;
    const SimTime wake = governor_->next_wake(now_);
    if (wake <= now_)
        return {};  // Governor may act on the very next tick.
    const auto ceil_div = [](SimTime a, SimTime b) {
        return static_cast<long>((a + b - 1) / b);
    };
    // The interval is the tightest cap; on a tie the cap listed first
    // in EngineStats::Cap is the one reported.
    Horizon h{ceil_div(config_.duration - now_, dt),
              EngineStats::kDuration, ceil_div(wake - now_, dt)};
    const auto cap = [&h](long ticks, EngineStats::Cap why) {
        if (ticks < h.ticks || (ticks == h.ticks && why < h.cap)) {
            h.ticks = ticks;
            h.cap = why;
        }
    };
    // Replayed ticks start at now_, now_ + dt, ..., now_ + (n-1)*dt
    // and the interval closes at now_ + n*dt.  Each cap below keeps
    // one class of per-tick side effects provably inert:
    //  - run end: do not step past the configured duration;
    //  - governor: every replayed tick start stays < wake, so a
    //    period-driven tick() would have returned immediately; under a
    //    rest grant its wakes are no-ops too, so the cap is left out
    //    (advance_quiescent() refuses the interval if the chip turns
    //    out not to be at rest);
    //  - lifetimes: no arrival/departure edge inside (now_, now_+n*dt],
    //    so the scheduler's active set and the QoS alive mask are
    //    both constant AND equal to their interval-start values (the
    //    -1 keeps the closing edge out too, because the QoS mask is
    //    evaluated at tick *end* times);
    //  - blocked tasks: a task unblocking mid-interval would change
    //    the water-fill, so the interval ends at its unblock tick;
    //  - phases: a multi-phase task crossing a phase boundary changes
    //    its per-tick cost (single-phase rollover is harmless: the
    //    cost is unchanged and the phase clock is pure integer
    //    arithmetic either way);
    //  - tracing: every replayed tick must *end* strictly before the
    //    next trace sample is due;
    //  - warmup: every replayed tick of a pre-warmup interval must
    //    *end* strictly before the warmup edge (the same -1 as a
    //    lifetime edge), so the boundary step() takes the warmup
    //    snapshot on the very tick the per-tick loop would, and an
    //    interval lies wholly before the QoS window or inside it.
    // run_until() horizon: like the duration cap, a pure minimum
    // bound, so slicing a run into epochs never changes what runs.
    if (stop_at_ < config_.duration)
        cap(ceil_div(stop_at_ - now_, dt), EngineStats::kRunUntil);
    if (!rest_)
        cap(h.wake, EngineStats::kWake);
    for (const auto& life : config_.lifetimes) {
        // >= not >: an edge landing exactly at now_ has not been
        // applied yet (apply_lifetimes() runs at the *start* of the
        // next tick), so the active set begin_replay() would freeze
        // is stale -- the cap collapses to -1 and forces a step().
        if (life.arrival >= now_)
            cap(ceil_div(life.arrival - now_, dt) - 1,
                EngineStats::kLifetime);
        if (life.departure >= now_)
            cap(ceil_div(life.departure - now_, dt) - 1,
                EngineStats::kLifetime);
    }
    for (const auto& t : owned_tasks_) {
        if (!scheduler_->active(t->id()))
            continue;
        const SimTime blocked = scheduler_->blocked_until(t->id());
        if (blocked > now_)
            cap(ceil_div(blocked - now_, dt), EngineStats::kUnblock);
        if (t->num_phases() > 1)
            cap(ceil_div(t->phase_remaining(), dt), EngineStats::kPhase);
    }
    if (bus_.enabled() && config_.trace_period > 0 && next_trace_ > now_)
        cap(ceil_div(next_trace_ - now_, dt) - 1, EngineStats::kTrace);
    if (!warmup_snapshotted_)
        cap(ceil_div(config_.warmup - now_, dt) - 1, EngineStats::kWarmup);
    if (injector_ != nullptr) {
        // Every fault edge (window open/close, pending action due,
        // core restoration) is a horizon: the interval ends AT the
        // edge so the next step() starts exactly there and runs
        // injector->tick(edge) -- window activation, core restoration
        // and deferred-action landing happen at the same tick as in
        // per-tick execution (no -1: unlike lifetime edges, fault
        // edges take effect at the start of their own tick, like a
        // task unblocking).
        //
        // Query from the last *executed* tick, not from now_:
        // next_edge() reports edges strictly after its argument, and
        // an edge due exactly at now_ (the next unexecuted tick --
        // e.g. a pending DVFS level whose due lands on the tick a
        // previous cap stopped at) has NOT been processed yet.  Asking
        // at now_ would skip it and replay the interval at the old
        // V-F level, landing the action late.
        const SimTime edge = injector_->next_edge(now_ - dt);
        if (edge != fault::FaultInjector::kNoEdge) {
            if (edge <= now_)
                return {};  // Edge on the very next tick: step().
            cap(ceil_div(edge - now_, dt), EngineStats::kFault);
        }
    }
    h.ticks = std::max<long>(0, h.ticks);
    return h;
}

void
Simulation::advance_quiescent(const Horizon& h)
{
    const long n = h.ticks;
    const SimTime dt = config_.tick;
    // One water-fill for the whole interval: its inputs (placements,
    // nice weights, active set, blocked states, phases, V-F levels)
    // are exactly what quiescent_ticks() held constant.  When the
    // lookup voids the rest grant, an interval that reaches past the
    // wake is refused, side-effect free like the power veto below,
    // and the next step() lets the governor wake.
    if (look_up_slots() && h.ticks > h.wake) {
        ++stats_.rest_refused;
        return;
    }

    // One power evaluation: every replayed tick would recompute the
    // same watts from the same utilizations.
    const Watts chip_w = evaluate_power();

    // The governor's quiescent() verdict predates this water-fill, so
    // it compared against the *last executed tick's* power.  When a
    // scheduling era ends exactly at the interval boundary (a task
    // unblocking from a migration charge, a phase crossing), the
    // interval runs at a different power, and a per-tick side
    // condition keyed on power -- HL's TDP kill -- could fire on the
    // first replayed tick.  Re-confirm with the interval's true power
    // and fall back to per-tick execution on a veto (the lookup above
    // only refreshed the slot cache and the observables it writes,
    // which step()'s lookup at this same tick finds bit-identical, so
    // bailing out here is side-effect free).
    if (!governor_->quiescent_at_power(chip_w)) {
        ++stats_.power_vetoes;
        rest_ = false;
        return;
    }

    // Let the governor replay its per-tick observations (e.g. the
    // sensor guard's last-good cache, refreshed by every clean read)
    // before the sensor state advances past the interval.
    governor_->replay_quiescent(*this, power_scratch_, n);
    ++stats_.closed_by[h.cap];
    if (h.ticks > h.wake)
        ++stats_.rest_intervals;

    // The sensors, thermal nodes and TDP duty cycles see constant
    // inputs and are read by nothing inside the interval, so they take
    // its n ticks in one update from its first tick: fault activity is
    // constant too (every fault edge is a horizon bound), and the
    // sensors end reading the interval's power, as its last tick
    // leaves them.
    advance_platform(n);

    // Lifetime mask: constant over the interval by construction.
    const std::vector<bool>* mask = alive_mask();

    // The warmup cap makes every tick of a pre-warmup interval end
    // before the edge, and the step() that takes the warmup snapshot
    // ends past it, so the QoS window covers all of an interval or
    // none of it.
    const bool post_warmup = warmup_snapshotted_;
    if (post_warmup && scheduler_->replay_bulk_ready(now_, dt)) {
        // Steady state: every load EWMA and HRM window is at its
        // floating-point fixed point, so per-tick replay would not
        // change a single bit of them -- advance everything in bulk.
        scheduler_->replay_bulk(n, dt);
        now_ += n * dt;
        // One QoS sample covers the whole interval: the heart rates
        // are pinned by the window fixed points, so n per-tick
        // duty-cycle additions of dt equal one addition of n*dt.
        qos_.sample(task_views_, now_, n * dt, config_.warmup, mask);
        ++stats_.bulk_intervals;
        stats_.bulk_ticks += n;
    } else {
        replay_span(n, post_warmup, mask);
        ++stats_.span_intervals;
        stats_.span_ticks += n;
    }
}

void
Simulation::replay_span(long n, bool qos, const std::vector<bool>* mask)
{
    const SimTime dt = config_.tick;
    SpanHits* hits = qos ? span_hits_.data() : nullptr;
    for (long left = n; left > 0;) {
        const long m = std::min(left, kSpanBlock);
        if (qos)
            std::fill(span_hits_.begin(), span_hits_.end(), SpanHits{});
        const long iterated = scheduler_->replay_span(m, now_, dt, hits);
        const auto samples =
            2 * m * static_cast<long>(scheduler_->replay_slot_count());
        stats_.span_window_iterated += iterated;
        stats_.span_window_closed += samples - iterated;
        if (qos) {
            // sample() reads every unmasked task at each tick's end.
            // The slots set their bits; a live task without a slot
            // reads its own (idle) window, tick by tick.
            for (std::size_t t = 0; t < task_views_.size(); ++t) {
                if (scheduler_->active(static_cast<TaskId>(t)) ||
                    (mask != nullptr && !(*mask)[t]))
                    continue;
                const workload::Task& task = *task_views_[t];
                const RateBand band = task.hrm().band();
                for (long k = 0; k < m; ++k)
                    span_hits_[t].mark(band, k,
                                       task.heart_rate(now_ + (k + 1) * dt));
            }
            qos_.sample_span(m, dt, hits, mask);
        }
        now_ += m * dt;
        left -= m;
    }
}

RunSummary
Simulation::run()
{
    run_until(config_.duration);
    return finish();
}

void
Simulation::run_until(SimTime stop)
{
    stop = std::min(stop, config_.duration);
    stop_at_ = stop;
    while (now_ < stop) {
        step();
        if (config_.macro_step) {
            const Horizon h = quiescent_ticks();
            if (h.ticks > 0)
                advance_quiescent(h);
        }
    }
    stop_at_ = SimConfig::Lifetime::kForever;
}

RunSummary
Simulation::finish()
{
    if (bus_.enabled()) {
        // Final record: every counter value, so streamed traces carry
        // the run's event totals without a side channel.
        metrics::TraceEvent e("counters", now_);
        for (const auto& [name, value] : bus_.counters())
            e.set(name, static_cast<double>(value));
        bus_.event(e);
        bus_.flush();
    }
    return summary();
}

TaskId
Simulation::admit_task(const workload::TaskSpec& spec,
                       SimConfig::Lifetime life, double big_speedup,
                       CoreId core)
{
    const auto id = static_cast<TaskId>(owned_tasks_.size());
    // Existing tasks may be running under implicit whole-run windows;
    // materialize those before appending a real one so the per-task
    // indices keep lining up.
    if (config_.lifetimes.empty())
        config_.lifetimes.assign(owned_tasks_.size(),
                                 SimConfig::Lifetime{});
    owned_tasks_.push_back(std::make_unique<workload::Task>(id, spec));
    workload::Task* task = owned_tasks_.back().get();
    task_views_.push_back(task);
    span_hits_.resize(owned_tasks_.size());
    config_.lifetimes.push_back(life);
    const auto& boot_cores = chip_.cluster(0).cores();
    const CoreId target = core != kInvalidId
        ? core
        : boot_cores[static_cast<std::size_t>(id) % boot_cores.size()];
    scheduler_->add_task(task, target);
    qos_.add_task();
    task_hr_ids_.push_back(bus_.intern(task->name() + "_hr"));
    task_norm_hr_ids_.push_back(bus_.intern(task->name() + "_norm_hr"));
    admit_log_.push_back({spec, life, big_speedup, core});
    if (initialized_)
        governor_->task_admitted(*this, id, big_speedup);
    return id;
}

TaskId
Simulation::try_admit_task(const workload::TaskSpec& spec,
                           SimConfig::Lifetime life, double big_speedup,
                           CoreId core)
{
    const AdmitReject verdict =
        initialized_ ? governor_->admission_check() : AdmitReject::kNone;
    if (verdict != AdmitReject::kNone) {
        bus_.count(admission_reject_id_);
        return kInvalidId;
    }
    return admit_task(spec, life, big_speedup, core);
}

void
Simulation::set_task_departure(TaskId t, SimTime departure)
{
    PPM_ASSERT(t >= 0 &&
                   static_cast<std::size_t>(t) < owned_tasks_.size(),
               "task id out of range");
    if (config_.lifetimes.empty())
        config_.lifetimes.assign(owned_tasks_.size(),
                                 SimConfig::Lifetime{});
    config_.lifetimes[static_cast<std::size_t>(t)].departure = departure;
}

RunSummary
Simulation::summary() const
{
    RunSummary s;
    s.governor = governor_->name();
    s.any_below_miss = qos_.any_below_fraction();
    s.any_outside_miss = qos_.any_outside_fraction();
    s.energy = sensors_.chip_energy();
    s.avg_power = now_ > 0 ? s.energy / to_seconds(now_) : 0.0;
    s.avg_power_post_warmup =
        warmup_snapshotted_ && now_ > warmup_end_
            ? (s.energy - warmup_energy_) / to_seconds(now_ - warmup_end_)
            : s.avg_power;
    s.migrations = scheduler_->migrations();
    s.vf_transitions = vf_transitions_;
    s.over_tdp_fraction = over_tdp_.fraction();
    s.over_tdp_post_warmup = over_tdp_post_.fraction();
    s.peak_temp_c = thermal_->peak_temperature();
    s.thermal_cycles = thermal_->thermal_cycles();
    for (TaskId t = 0; t < static_cast<TaskId>(owned_tasks_.size()); ++t) {
        s.task_below.push_back(qos_.task_below_fraction(t));
        s.task_outside.push_back(qos_.task_outside_fraction(t));
    }
    if (injector_ != nullptr) {
        const fault::FaultStats& st = injector_->stats();
        s.faults_injected = st.injected;
        s.sensor_fallbacks = st.sensor_fallbacks;
        s.fault_retries = st.dvfs_retries + st.migration_retries;
        s.safe_mode_entries = st.safe_mode_entries;
        s.watchdog_trips = st.watchdog_trips;
        s.safe_mode_seconds = to_seconds(st.safe_mode_time);
        s.over_tdp_during_fault = over_tdp_fault_.fraction();
    }
    const ClearingStats cs = governor_->clearing_stats();
    s.market_rounds = cs.rounds;
    s.market_task_slots = cs.task_slots;
    s.market_tasks_skipped = cs.tasks_skipped;
    s.market_core_slots = cs.core_slots;
    s.market_cores_skipped = cs.cores_skipped;
    s.market_rounds_early_exit = cs.rounds_early_exit;
    return s;
}

std::string
summary_fingerprint(const RunSummary& s)
{
    std::ostringstream out;
    const auto put = [&out](auto v) {
        if constexpr (std::is_same_v<decltype(v), double>) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            out << buf << '\n';
        } else {
            out << v << '\n';
        }
    };
    out << s.governor << '\n';
    RunSummary::fields([&](RunSummary::Merge, auto field) {
        const auto& x = s.*field;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(x)>,
                                     std::vector<double>>) {
            for (const double v : x)
                put(v);
        } else {
            put(x);
        }
    });
    return out.str();
}

void
Simulation::request_level(ClusterId v, int level)
{
    if (injector_ != nullptr)
        injector_->request_level(v, level);
    else
        chip_.cluster(v).set_level(level);
}

bool
Simulation::request_migration(TaskId t, CoreId core, SimTime now)
{
    if (injector_ != nullptr)
        return injector_->request_migration(t, core, now);
    scheduler_->migrate(t, core, now);
    return true;
}

void
Simulation::save(snap::Writer& w) const
{
    w(*this);
}

void
Simulation::load(snap::Reader& r)
{
    r(*this);
    stats_ = {};  // The engine counters are not state (EngineStats).
    rest_ = false;
}

} // namespace ppm::sim
