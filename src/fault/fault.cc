/**
 * @file
 * Fault plan compilation, the runtime injector, and the sensor guard.
 */

#include "fault/fault.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "hw/platform.hh"
#include "hw/sensors.hh"
#include "metrics/telemetry.hh"
#include "sched/scheduler.hh"

namespace ppm::fault {

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kSensorDrop: return "sensor_drop";
    case FaultKind::kSensorStuck: return "sensor_stuck";
    case FaultKind::kSensorNoise: return "sensor_noise";
    case FaultKind::kSensorStale: return "sensor_stale";
    case FaultKind::kDvfsFail: return "dvfs_fail";
    case FaultKind::kDvfsDelay: return "dvfs_delay";
    case FaultKind::kMigrationFail: return "migration_fail";
    case FaultKind::kMigrationSlow: return "migration_slow";
    case FaultKind::kCoreOffline: return "core_offline";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Spec parsing.

namespace {

bool
fail(std::string* error, const std::string& message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

bool
parse_fault_spec(const std::string& text, FaultSpec* spec,
                 std::string* error)
{
    PPM_ASSERT(spec != nullptr, "parse_fault_spec needs an output spec");
    FaultSpec out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            if (token == "sensor") {
                out.sensor = true;
            } else if (token == "dvfs") {
                out.dvfs = true;
            } else if (token == "migration" || token == "mig") {
                out.migration = true;
            } else if (token == "offline") {
                out.offline = true;
            } else if (token == "all") {
                out.sensor = out.dvfs = out.migration = out.offline =
                    true;
            } else if (token == "chip-fail") {
                out.chip_fail = true;
            } else if (token == "chip-degrade") {
                out.chip_degrade = true;
            } else if (token == "chip-recover") {
                out.chip_recover = true;
            } else {
                return fail(error, "unknown fault class '" + token +
                                       "' (want sensor, dvfs, "
                                       "migration, offline, all, "
                                       "chip-fail, chip-degrade or "
                                       "chip-recover)");
            }
            continue;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        // Seeds and retries are exact integers; the rest are reals.
        if (key == "seed") {
            if (!parse_u64(value, &out.seed))
                return fail(error, "fault spec seed wants an integer "
                                   "in [0, 2^64), got '" +
                                       value + "'");
            continue;
        }
        if (key == "retries") {
            long retries = 0;
            if (!parse_long(value, &retries) || retries < 0 ||
                retries > std::numeric_limits<int>::max())
                return fail(error, "fault spec retries wants an "
                                   "integer in [0, 2^31), got '" +
                                       value + "'");
            out.max_retries = static_cast<int>(retries);
            continue;
        }
        double num = 0.0;
        if (!parse_double(value, &num))
            return fail(error, "fault spec key '" + key +
                                   "' has a non-numeric value '" +
                                   value + "'");
        const auto positive_time = [&](SimTime* dst) {
            if (num <= 0.0)
                return fail(error, "fault spec key '" + key +
                                       "' must be > 0");
            if (!truncate_time(num, kMillisecond, dst))
                return fail(error, "fault spec key '" + key +
                                       "' is out of range, got '" +
                                       value + "'");
            return true;
        };
        if (key == "rate") {
            if (num <= 0.0)
                return fail(error, "fault spec rate must be > 0");
            out.rate_per_min = num;
        } else if (key == "duration_ms") {
            if (!positive_time(&out.mean_duration))
                return false;
        } else if (key == "noise_w") {
            if (num < 0.0)
                return fail(error, "fault spec noise_w must be >= 0");
            out.noise_sigma_w = num;
        } else if (key == "delay_ms") {
            if (!positive_time(&out.dvfs_delay))
                return false;
        } else if (key == "stale_ms") {
            if (!positive_time(&out.stale_age))
                return false;
        } else if (key == "staleness_ms") {
            if (!positive_time(&out.staleness_bound))
                return false;
        } else if (key == "backoff_ms") {
            if (!positive_time(&out.retry_backoff))
                return false;
        } else if (key == "chip_rate") {
            if (num <= 0.0)
                return fail(error,
                            "fault spec chip_rate must be > 0");
            out.chip_rate_per_min = num;
        } else if (key == "degrade") {
            if (num <= 0.0 || num > 1.0)
                return fail(error, "fault spec degrade must be in "
                                   "(0, 1]");
            out.degrade_factor = num;
        } else {
            return fail(error,
                        "unknown fault spec key '" + key + "'");
        }
    }
    if (!out.any() && !out.any_fleet()) {
        if (out.chip_recover)
            return fail(error,
                        "chip-recover needs chip-fail or chip-degrade "
                        "(nothing to recover from)");
        return fail(error, "fault spec enables no fault class (add "
                           "sensor, dvfs, migration, offline, all or "
                           "a chip-* class)");
    }
    *spec = out;
    return true;
}

// ---------------------------------------------------------------------------
// Plan compilation.

void
FaultPlan::add(const FaultEvent& ev)
{
    PPM_ASSERT(ev.end > ev.start && ev.start >= 0,
               "fault event window must be non-empty");
    events_.push_back(ev);
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.start < b.start;
                     });
}

FaultPlan
FaultPlan::compile(const FaultSpec& spec, int num_clusters,
                   int num_cores, SimTime duration, SimTime tick)
{
    PPM_ASSERT(num_clusters > 0 && num_cores > 0,
               "fault plan needs a non-empty chip");
    PPM_ASSERT(duration > tick && tick > 0,
               "fault plan needs a positive run window");
    FaultPlan plan;
    plan.staleness_bound = spec.staleness_bound;
    plan.max_retries = spec.max_retries;
    plan.retry_backoff = spec.retry_backoff;

    Rng rng(spec.seed);
    const double minutes = to_seconds(duration) / 60.0;
    const int per_class = std::max(
        1, static_cast<int>(std::lround(spec.rate_per_min * minutes)));
    const auto quantize = [tick](SimTime t) { return t / tick * tick; };

    // Draw the window last so every class consumes the same stream
    // shape: kind/target draws, then start/length/salt.
    const auto draw_window = [&](FaultEvent* ev) {
        const SimTime latest = duration - tick;
        const auto raw =
            static_cast<SimTime>(rng.uniform() *
                                 static_cast<double>(duration));
        ev->start = std::clamp<SimTime>(quantize(raw), tick, latest);
        const auto len = static_cast<SimTime>(
            static_cast<double>(spec.mean_duration) *
            rng.uniform(0.5, 1.5));
        ev->end = std::min<SimTime>(
            duration,
            ev->start + std::max<SimTime>(tick, quantize(len)));
        ev->salt = rng.next_u64();
    };

    if (spec.sensor) {
        static constexpr FaultKind kSensorKinds[] = {
            FaultKind::kSensorDrop, FaultKind::kSensorStuck,
            FaultKind::kSensorNoise, FaultKind::kSensorStale};
        for (int i = 0; i < per_class; ++i) {
            FaultEvent ev;
            ev.kind = kSensorKinds[rng.uniform_int(0, 3)];
            ev.target = rng.chance(0.5)
                            ? kInvalidId
                            : static_cast<int>(
                                  rng.uniform_int(0, num_clusters - 1));
            ev.magnitude = spec.noise_sigma_w;
            ev.delay = spec.stale_age;
            draw_window(&ev);
            plan.add(ev);
        }
    }
    if (spec.dvfs) {
        for (int i = 0; i < per_class; ++i) {
            FaultEvent ev;
            ev.kind = rng.chance(0.5) ? FaultKind::kDvfsFail
                                      : FaultKind::kDvfsDelay;
            ev.target = rng.chance(0.5)
                            ? kInvalidId
                            : static_cast<int>(
                                  rng.uniform_int(0, num_clusters - 1));
            ev.delay = spec.dvfs_delay;
            draw_window(&ev);
            plan.add(ev);
        }
    }
    if (spec.migration) {
        for (int i = 0; i < per_class; ++i) {
            FaultEvent ev;
            ev.kind = rng.chance(0.5) ? FaultKind::kMigrationFail
                                      : FaultKind::kMigrationSlow;
            ev.target = kInvalidId;
            ev.magnitude = rng.uniform(2.0, 8.0);
            draw_window(&ev);
            plan.add(ev);
        }
    }
    if (spec.offline) {
        for (int i = 0; i < per_class; ++i) {
            FaultEvent ev;
            ev.kind = FaultKind::kCoreOffline;
            ev.target = static_cast<int>(
                rng.uniform_int(0, num_cores - 1));
            draw_window(&ev);
            plan.add(ev);
        }
    }
    return plan;
}

// ---------------------------------------------------------------------------
// Fleet (chip-level) plan compilation.

const char*
fleet_fault_kind_name(FleetFaultKind kind)
{
    switch (kind) {
    case FleetFaultKind::kChipFail: return "chip_fail";
    case FleetFaultKind::kChipDegrade: return "chip_degrade";
    case FleetFaultKind::kChipRecover: return "chip_recover";
    }
    return "unknown";
}

void
FleetFaultPlan::add(const FleetFaultEvent& ev)
{
    PPM_ASSERT(ev.time >= 0 && ev.chip >= 0,
               "fleet fault event needs a valid time and chip");
    const auto before = [](const FleetFaultEvent& a,
                           const FleetFaultEvent& b) {
        return a.time != b.time ? a.time < b.time : a.chip < b.chip;
    };
    // Appending in time order (the common case: compiled schedules,
    // long hand-built alternations) stays O(1); out-of-order adds
    // insert at their sorted position.
    if (events_.empty() || !before(ev, events_.back())) {
        events_.push_back(ev);
        return;
    }
    events_.insert(
        std::upper_bound(events_.begin(), events_.end(), ev, before),
        ev);
}

FleetFaultPlan
FleetFaultPlan::compile(const FaultSpec& spec, int num_chips,
                        SimTime duration, SimTime epoch)
{
    PPM_ASSERT(num_chips > 0, "fleet fault plan needs chips");
    PPM_ASSERT(duration > epoch && epoch > 0,
               "fleet fault plan needs a positive run window");
    FleetFaultPlan plan;
    if (!spec.any_fleet())
        return plan;

    // Decouple from the per-chip FaultPlan stream (which consumes
    // Rng(seed) directly): enabling chip classes must never perturb
    // the chips' own schedules.
    Rng rng(mix64(spec.seed ^ 0x636869702d66ULL));  // "chip-f"
    const double minutes = to_seconds(duration) / 60.0;
    const int per_class = std::max(
        1,
        static_cast<int>(std::lround(spec.chip_rate_per_min * minutes)));
    const auto quantize = [epoch](SimTime t) {
        return t / epoch * epoch;
    };
    const SimTime latest = quantize(duration - 1);

    const auto draw = [&](FleetFaultKind kind, double factor) {
        FleetFaultEvent ev;
        ev.kind = kind;
        ev.chip = static_cast<int>(rng.uniform_int(0, num_chips - 1));
        ev.factor = factor;
        const auto raw = static_cast<SimTime>(
            rng.uniform() * static_cast<double>(duration));
        ev.time = std::clamp<SimTime>(quantize(raw), epoch, latest);
        plan.add(ev);
        if (spec.chip_recover) {
            const auto len = static_cast<SimTime>(
                static_cast<double>(spec.mean_duration) *
                rng.uniform(0.5, 1.5));
            FleetFaultEvent rec;
            rec.kind = FleetFaultKind::kChipRecover;
            rec.chip = ev.chip;
            rec.time = std::min<SimTime>(
                latest,
                ev.time + std::max<SimTime>(epoch, quantize(len)));
            if (rec.time > ev.time)
                plan.add(rec);
        } else {
            rng.uniform(0.5, 1.5);  // Keep the stream shape uniform.
        }
    };

    if (spec.chip_fail)
        for (int i = 0; i < per_class; ++i)
            draw(FleetFaultKind::kChipFail, 1.0);
    if (spec.chip_degrade)
        for (int i = 0; i < per_class; ++i)
            draw(FleetFaultKind::kChipDegrade, spec.degrade_factor);
    return plan;
}

// ---------------------------------------------------------------------------
// Injector.

FaultInjector::FaultInjector(FaultPlan plan, hw::Chip* chip,
                             sched::Scheduler* sched,
                             metrics::TraceBus* bus)
    : plan_(std::move(plan)), chip_(chip), sched_(sched), bus_(bus)
{
    PPM_ASSERT(chip_ != nullptr && sched_ != nullptr,
               "fault injector needs a chip and a scheduler");
    pending_level_.resize(
        static_cast<std::size_t>(chip_->num_clusters()));
    offline_until_.assign(static_cast<std::size_t>(chip_->num_cores()),
                          0);
    if (bus_ != nullptr) {
        id_injected_ = bus_->intern("faults_injected");
        id_fallback_ = bus_->intern("fault_sensor_fallbacks");
        id_deferred_ = bus_->intern("fault_dvfs_deferred");
        id_retry_ = bus_->intern("fault_retries");
        id_dropped_ = bus_->intern("fault_dropped_actions");
        id_offline_ = bus_->intern("fault_core_offline");
        id_safe_entry_ = bus_->intern("fault_safe_mode_entries");
        id_watchdog_ = bus_->intern("fault_watchdog_trips");
    }
}

void
FaultInjector::bump(SeriesIdOpaque id)
{
    if (bus_ != nullptr && id >= 0)
        bus_->count(id);
}

void
FaultInjector::count_sensor_fallback()
{
    bump(id_fallback_);
}

void
FaultInjector::count_safe_mode_entry()
{
    bump(id_safe_entry_);
}

void
FaultInjector::count_watchdog_trip()
{
    ++stats_.watchdog_trips;
    bump(id_watchdog_);
}

void
FaultInjector::tick(SimTime now)
{
    now_ = now;

    // Restore cores whose offline window has closed.
    for (CoreId c = 0;
         c < static_cast<CoreId>(offline_until_.size()); ++c) {
        if (offline_until_[c] != 0 && offline_until_[c] <= now) {
            offline_until_[c] = 0;
            chip_->set_core_online(c, true);
            sched_->notify_topology_changed();
        }
    }

    // Activate fault windows that have opened.
    const std::vector<FaultEvent>& events = plan_.events();
    while (next_start_ < events.size() &&
           events[next_start_].start <= now) {
        const FaultEvent& ev = events[next_start_++];
        if (ev.end <= now)
            continue;
        ++stats_.injected;
        bump(id_injected_);
        if (ev.kind == FaultKind::kCoreOffline)
            begin_offline(ev, now);
    }

    // Land (or retry) pending DVFS requests.
    for (ClusterId v = 0;
         v < static_cast<ClusterId>(pending_level_.size()); ++v) {
        PendingLevel& p = pending_level_[v];
        if (!p.active || p.due > now)
            continue;
        if (p.from_fail) {
            ++stats_.dvfs_retries;
            bump(id_retry_);
        }
        const FaultEvent* ev = active_dvfs_event(v, now);
        if (ev != nullptr && ev->kind == FaultKind::kDvfsFail) {
            if (p.retries_left > 0) {
                --p.retries_left;
                p.from_fail = true;
                p.backoff *= 2;
                p.due = now + std::max<SimTime>(p.backoff, 1);
            } else {
                p.active = false;
                ++stats_.dropped_actions;
                bump(id_dropped_);
            }
            continue;
        }
        chip_->cluster(v).set_level(p.level);
        p.active = false;
    }

    // Land (or retry) pending migrations, compacting in place.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending_mig_.size(); ++i) {
        PendingMigration p = pending_mig_[i];
        if (p.due > now) {
            pending_mig_[keep++] = p;
            continue;
        }
        ++stats_.migration_retries;
        bump(id_retry_);
        if (!chip_->core_online(p.core)) {
            ++stats_.dropped_actions;
            bump(id_dropped_);
            continue;
        }
        const FaultEvent* ev =
            active_migration_event(FaultKind::kMigrationFail, now);
        if (ev != nullptr) {
            if (p.retries_left > 0) {
                --p.retries_left;
                p.backoff *= 2;
                p.due = now + std::max<SimTime>(p.backoff, 1);
                pending_mig_[keep++] = p;
            } else {
                ++stats_.dropped_actions;
                bump(id_dropped_);
            }
            continue;
        }
        sched_->migrate(p.task, p.core, now,
                        migration_cost_scale(now));
    }
    pending_mig_.resize(keep);
}

SimTime
FaultInjector::next_edge(SimTime now) const
{
    SimTime edge = kNoEdge;
    const auto consider = [&edge, now](SimTime t) {
        if (t > now && t < edge)
            edge = t;
    };
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.start > now) {
            consider(ev.start);
            break;  // Events are sorted by start.
        }
        consider(ev.end);
    }
    for (const PendingLevel& p : pending_level_)
        if (p.active)
            consider(p.due);
    for (const PendingMigration& p : pending_mig_)
        consider(p.due);
    for (const SimTime until : offline_until_)
        if (until != 0)
            consider(until);
    return edge;
}

bool
FaultInjector::any_fault_active(SimTime now) const
{
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.start > now)
            break;
        if (ev.end > now)
            return true;
    }
    return false;
}

bool
FaultInjector::sensor_fault_active(SimTime now) const
{
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.start > now)
            break;
        if (ev.end <= now)
            continue;
        switch (ev.kind) {
        case FaultKind::kSensorDrop:
        case FaultKind::kSensorStuck:
        case FaultKind::kSensorNoise:
        case FaultKind::kSensorStale:
            return true;
        default:
            break;
        }
    }
    return false;
}

const FaultEvent*
FaultInjector::active_sensor_event(ClusterId cluster,
                                   SimTime now) const
{
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.start > now)
            break;
        if (ev.end <= now)
            continue;
        if (ev.target != kInvalidId && ev.target != cluster)
            continue;
        switch (ev.kind) {
        case FaultKind::kSensorDrop:
        case FaultKind::kSensorStuck:
        case FaultKind::kSensorNoise:
        case FaultKind::kSensorStale:
            return &ev;
        default:
            break;
        }
    }
    return nullptr;
}

const FaultEvent*
FaultInjector::active_dvfs_event(ClusterId cluster, SimTime now) const
{
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.start > now)
            break;
        if (ev.end <= now)
            continue;
        if (ev.target != kInvalidId && ev.target != cluster)
            continue;
        if (ev.kind == FaultKind::kDvfsFail ||
            ev.kind == FaultKind::kDvfsDelay)
            return &ev;
    }
    return nullptr;
}

const FaultEvent*
FaultInjector::active_migration_event(FaultKind kind,
                                      SimTime now) const
{
    for (const FaultEvent& ev : plan_.events()) {
        if (ev.start > now)
            break;
        if (ev.end <= now)
            continue;
        if (ev.kind == kind)
            return &ev;
    }
    return nullptr;
}

// The stateless mixing step for noise is the shared ppm::mix64
// (common/rng.hh) -- the exact same SplitMix64 finalizer this file
// carried locally before, so injected noise streams are unchanged.

double
FaultInjector::noise_offset(const FaultEvent& ev, ClusterId cluster,
                            SimTime now) const
{
    const std::uint64_t h1 =
        mix64(ev.salt ^ static_cast<std::uint64_t>(now));
    const std::uint64_t h2 =
        mix64(h1 ^ (static_cast<std::uint64_t>(cluster) + 1));
    // Box-Muller over two uniforms in (0, 1]; u1 is kept away from 0.
    const double u1 =
        (static_cast<double>(h1 >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.14159265358979323846 * u2);
    return ev.magnitude * std::clamp(z, -3.0, 3.0);
}

bool
FaultInjector::request_level(ClusterId cluster, int level)
{
    hw::Cluster& cl = chip_->cluster(cluster);
    const int target = cl.vf().clamp_level(level);
    PendingLevel& p =
        pending_level_[static_cast<std::size_t>(cluster)];
    const FaultEvent* ev = active_dvfs_event(cluster, now_);
    if (ev == nullptr) {
        // Latest intent wins: a clean request supersedes any pending
        // faulted one.
        p.active = false;
        const int before = cl.level();
        cl.set_level(target);
        return cl.level() != before;
    }
    if (target == cl.level() && !p.active)
        return false;
    p.level = target;
    p.retries_left = plan_.max_retries;
    p.backoff = std::max<SimTime>(plan_.retry_backoff, 1);
    if (ev->kind == FaultKind::kDvfsDelay) {
        p.from_fail = false;
        p.due = now_ + std::max<SimTime>(ev->delay, 1);
    } else {
        p.from_fail = true;
        p.due = now_ + p.backoff;
    }
    p.active = true;
    ++stats_.dvfs_deferred;
    bump(id_deferred_);
    return false;
}

bool
FaultInjector::request_step(ClusterId cluster, int delta)
{
    const hw::Cluster& cl = chip_->cluster(cluster);
    return request_level(cluster, cl.level() + delta);
}

double
FaultInjector::migration_cost_scale(SimTime now) const
{
    const FaultEvent* ev =
        active_migration_event(FaultKind::kMigrationSlow, now);
    if (ev == nullptr)
        return 1.0;
    return std::max(1.0, ev->magnitude);
}

bool
FaultInjector::request_migration(TaskId task, CoreId core,
                                 SimTime now)
{
    if (core == kInvalidId || !chip_->core_online(core)) {
        ++stats_.dropped_actions;
        bump(id_dropped_);
        return false;
    }
    const FaultEvent* ev =
        active_migration_event(FaultKind::kMigrationFail, now);
    if (ev != nullptr) {
        PendingMigration p;
        p.task = task;
        p.core = core;
        p.retries_left = plan_.max_retries;
        p.backoff = std::max<SimTime>(plan_.retry_backoff, 1);
        p.due = now + p.backoff;
        pending_mig_.push_back(p);
        return false;
    }
    sched_->migrate(task, core, now, migration_cost_scale(now));
    return true;
}

CoreId
FaultInjector::evacuation_target(CoreId from) const
{
    const ClusterId home = chip_->cluster_of(from);
    CoreId best = kInvalidId;
    std::size_t best_load = 0;
    const auto consider = [&](CoreId c) {
        if (c == from || !chip_->core_online(c))
            return;
        const std::size_t load = sched_->tasks_on(c).size();
        if (best == kInvalidId || load < best_load) {
            best = c;
            best_load = load;
        }
    };
    for (CoreId c = 0; c < chip_->num_cores(); ++c)
        if (chip_->cluster_of(c) == home)
            consider(c);
    if (best != kInvalidId)
        return best;
    for (CoreId c = 0; c < chip_->num_cores(); ++c)
        if (chip_->cluster_of(c) != home)
            consider(c);
    return best;
}

void
FaultInjector::begin_offline(const FaultEvent& ev, SimTime now)
{
    const CoreId core = ev.target;
    if (core < 0 || core >= chip_->num_cores())
        return;
    offline_until_[static_cast<std::size_t>(core)] = std::max(
        offline_until_[static_cast<std::size_t>(core)], ev.end);
    if (!chip_->core_online(core))
        return;  // Already offline; the window above was extended.
    chip_->set_core_online(core, false);
    ++stats_.offline_events;
    bump(id_offline_);
    // Evacuate in task-id order onto the least-populated online core,
    // preferring the home cluster.  If the whole chip is offline the
    // tasks stay put and simply receive no supply.
    const std::vector<TaskId> victims = sched_->tasks_on(core);
    for (const TaskId t : victims) {
        const CoreId dst = evacuation_target(core);
        if (dst == kInvalidId)
            break;
        sched_->migrate(t, dst, now);
    }
    sched_->notify_topology_changed();
}

// ---------------------------------------------------------------------------
// Sensor guard.

void
SensorGuard::init(int num_clusters, FaultInjector* injector)
{
    PPM_ASSERT(num_clusters > 0, "sensor guard needs clusters");
    injector_ = injector;
    last_good_.assign(static_cast<std::size_t>(num_clusters), 0.0);
    if (injector_ != nullptr)
        bound_ = injector_->plan().staleness_bound;
    worst_age_ = 0;
    last_eval_ = 0;
    safe_ = false;
}

Watts
SensorGuard::filter(Watts raw, ClusterId cluster, SimTime now)
{
    if (injector_ == nullptr)
        return raw;
    const FaultEvent* ev =
        injector_->active_sensor_event(cluster, now);
    const auto slot = static_cast<std::size_t>(cluster);
    if (ev == nullptr) {
        last_good_[slot] = raw;
        return raw;
    }
    FaultStats& st = injector_->stats();
    switch (ev->kind) {
    case FaultKind::kSensorNoise:
        // Perturbed but fresh: bounded noise, never negative.
        return std::max(0.0,
                        raw + injector_->noise_offset(*ev, cluster,
                                                      now));
    case FaultKind::kSensorDrop:
        ++st.sensor_fallbacks;
        injector_->count_sensor_fallback();
        worst_age_ = std::max(worst_age_, now - ev->start);
        return last_good_[slot];
    case FaultKind::kSensorStale:
        ++st.sensor_fallbacks;
        injector_->count_sensor_fallback();
        worst_age_ = std::max(worst_age_, ev->delay);
        return last_good_[slot];
    case FaultKind::kSensorStuck:
        // Stuck-at-last-value is undetectable: served from the cache
        // but contributes no staleness age.
        ++st.sensor_fallbacks;
        injector_->count_sensor_fallback();
        return last_good_[slot];
    default:
        return raw;
    }
}

Watts
SensorGuard::read_average(const hw::SensorBank& bank,
                          ClusterId cluster, SimTime now)
{
    return filter(bank.average_since_mark(cluster), cluster, now);
}

Watts
SensorGuard::read_instantaneous(const hw::SensorBank& bank,
                                ClusterId cluster, SimTime now)
{
    return filter(bank.instantaneous(cluster), cluster, now);
}

Watts
SensorGuard::read_chip_average(const hw::SensorBank& bank,
                               SimTime now)
{
    if (injector_ == nullptr)
        return bank.chip_average_since_mark();
    Watts sum = 0.0;
    for (ClusterId v = 0; v < bank.num_clusters(); ++v)
        sum += read_average(bank, v, now);
    return sum;
}

Watts
SensorGuard::read_chip_instantaneous(const hw::SensorBank& bank,
                                     SimTime now)
{
    if (injector_ == nullptr)
        return bank.instantaneous_chip();
    Watts sum = 0.0;
    for (ClusterId v = 0; v < bank.num_clusters(); ++v)
        sum += read_instantaneous(bank, v, now);
    return sum;
}

void
SensorGuard::replay_clean_reads(const std::vector<Watts>& last_good)
{
    if (injector_ == nullptr)
        return;
    PPM_ASSERT(last_good.size() == last_good_.size(),
               "replay_clean_reads cluster count mismatch");
    PPM_ASSERT(!safe_, "cannot replay clean reads in safe mode");
    last_good_ = last_good;
}

void
SensorGuard::update_safe_mode(SimTime now)
{
    if (injector_ == nullptr)
        return;
    FaultStats& st = injector_->stats();
    if (safe_)
        st.safe_mode_time += now - last_eval_;
    const bool was_safe = safe_;
    safe_ = worst_age_ > bound_;
    if (safe_ && !was_safe) {
        ++st.safe_mode_entries;
        injector_->count_safe_mode_entry();
    }
    worst_age_ = 0;
    last_eval_ = now;
}

} // namespace ppm::fault
