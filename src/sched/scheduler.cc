#include "sched/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "sched/nice.hh"

namespace ppm::sched {

namespace {
/** EWMA time constant for the load signals (PELT-like). */
constexpr double kLoadTauSeconds = 0.1;

/** Bitwise double equality (distinguishes 0.0 from -0.0). */
bool
bit_equal(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
} // namespace

Scheduler::Scheduler(hw::Chip* chip, hw::MigrationModel migration)
    : chip_(chip), migration_(migration),
      core_util_(static_cast<std::size_t>(chip->num_cores()), 0.0),
      core_tasks_(static_cast<std::size_t>(chip->num_cores()))
{
    PPM_ASSERT(chip_ != nullptr, "scheduler needs a chip");
}

void
Scheduler::add_task(workload::Task* task, CoreId core)
{
    PPM_ASSERT(task != nullptr, "null task");
    PPM_ASSERT(core >= 0 && core < chip_->num_cores(),
               "initial core out of range");
    PPM_ASSERT(task->id() == num_tasks(),
               "tasks must be added in id order starting at 0");
    Entry e;
    e.task = task;
    e.core = core;
    e.nice = 0;
    e.weight = weight_for_nice(0);
    entries_.push_back(e);
    // Room for every task on every core, so migrations and activity
    // changes never allocate (grown geometrically: construction adds
    // the tasks one at a time).  The new id is the largest, so
    // appending keeps the list sorted.
    for (auto& ids : core_tasks_) {
        if (ids.capacity() < entries_.size())
            ids.reserve(std::max<std::size_t>(8, 2 * entries_.size()));
    }
    core_tasks_[static_cast<std::size_t>(core)].push_back(task->id());
    replay_cache_valid_ = false;
}

void
Scheduler::list_insert(CoreId core, TaskId t)
{
    auto& ids = core_tasks_[static_cast<std::size_t>(core)];
    ids.insert(std::lower_bound(ids.begin(), ids.end(), t), t);
}

void
Scheduler::list_erase(CoreId core, TaskId t)
{
    auto& ids = core_tasks_[static_cast<std::size_t>(core)];
    const auto it = std::lower_bound(ids.begin(), ids.end(), t);
    PPM_ASSERT(it != ids.end() && *it == t,
               "active task missing from its core's list");
    ids.erase(it);
}

void
Scheduler::rebuild_core_lists()
{
    for (auto& ids : core_tasks_)
        ids.clear();
    for (const Entry& e : entries_) {
        if (e.active)
            core_tasks_[static_cast<std::size_t>(e.core)].push_back(
                e.task->id());
    }
}

Scheduler::Entry&
Scheduler::entry(TaskId t)
{
    PPM_ASSERT(t >= 0 && t < num_tasks(), "task id out of range");
    return entries_[static_cast<std::size_t>(t)];
}

const Scheduler::Entry&
Scheduler::entry(TaskId t) const
{
    PPM_ASSERT(t >= 0 && t < num_tasks(), "task id out of range");
    return entries_[static_cast<std::size_t>(t)];
}

workload::Task&
Scheduler::task(TaskId t)
{
    return *entry(t).task;
}

const workload::Task&
Scheduler::task(TaskId t) const
{
    return *entry(t).task;
}

CoreId
Scheduler::core_of(TaskId t) const
{
    return entry(t).core;
}

const std::vector<TaskId>&
Scheduler::tasks_on(CoreId core) const
{
    PPM_ASSERT(core >= 0 && core < chip_->num_cores(),
               "core id out of range");
    return core_tasks_[static_cast<std::size_t>(core)];
}

CoreId
Scheduler::least_loaded_core(ClusterId v) const
{
    CoreId best = kInvalidId;
    std::size_t best_count = 0;
    for (CoreId c : chip_->cluster(v).cores()) {
        if (!chip_->core_online(c))
            continue;
        const std::size_t count = tasks_on(c).size();
        if (best == kInvalidId || count < best_count) {
            best = c;
            best_count = count;
        }
    }
    return best;
}

void
Scheduler::set_active(TaskId t, bool active)
{
    Entry& e = entry(t);
    if (e.active == active)
        return;
    e.active = active;
    if (active)
        list_insert(e.core, t);
    else
        list_erase(e.core, t);
    replay_cache_valid_ = false;
}

bool
Scheduler::active(TaskId t) const
{
    return entry(t).active;
}

SimTime
Scheduler::migrate(TaskId t, CoreId core, SimTime now,
                   double cost_scale)
{
    PPM_ASSERT(core >= 0 && core < chip_->num_cores(),
               "target core out of range");
    Entry& e = entry(t);
    if (e.core == core)
        return 0;
    const SimTime cost =
        migration_.cost(*chip_, e.core, core, cost_scale);
    if (e.active) {
        list_erase(e.core, t);
        list_insert(core, t);
    }
    e.core = core;
    e.blocked_until = std::max(e.blocked_until, now + cost);
    ++migrations_;
    replay_cache_valid_ = false;
    return cost;
}

void
Scheduler::set_nice(TaskId t, int nice)
{
    Entry& e = entry(t);
    const int clamped = std::clamp(nice, kMinNice, kMaxNice);
    if (e.nice == clamped)
        return;  // weight_for_nice is pure: nothing would change.
    e.nice = clamped;
    e.weight = weight_for_nice(clamped);
    replay_cache_valid_ = false;
}

int
Scheduler::nice_of(TaskId t) const
{
    return entry(t).nice;
}

Cycles
Scheduler::fill_granted(CoreId core, const std::vector<TaskId>& ids,
                        SimTime now, SimTime dt)
{
    const hw::Cluster& cl = chip_->cluster(chip_->cluster_of(core));
    const hw::CoreClass cls = cl.type().core_class;
    const Cycles capacity =
        chip_->core_online(core) ? work_done(cl.supply(), dt) : 0.0;

    // Gather the water-fill inputs into flat scratch columns first:
    // runnable positions, CFS weights, and desired cycles.  Both
    // gathered values are invariant across the refinement passes
    // below (desired_cycles is pure until advance()), so hoisting
    // them replaces the pass-by-pass Entry/Task pointer chasing with
    // contiguous loads the compiler can keep in vector registers --
    // the values, and hence every grant, are bit-identical.
    active_idx_.clear();
    wf_weight_.resize(ids.size());
    wf_want_.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Entry& e = entry(ids[i]);
        wf_weight_[i] = e.weight;
        wf_want_[i] = e.task->desired_cycles(dt, cls);
        if (e.blocked_until <= now)
            active_idx_.push_back(i);
    }

    // Water-filling proportional share among runnable tasks.
    granted_.assign(ids.size(), 0.0);
    if (capacity > 0.0 && !active_idx_.empty()) {
        Cycles remaining = capacity;
        while (!active_idx_.empty() && remaining > 1e-9) {
            double total_weight = 0.0;
            for (const std::size_t i : active_idx_)
                total_weight += wf_weight_[i];
            hungry_idx_.clear();
            Cycles consumed = 0.0;
            for (const std::size_t i : active_idx_) {
                const Cycles quota =
                    remaining * wf_weight_[i] / total_weight;
                const Cycles want = wf_want_[i];
                const Cycles already = granted_[i];
                const Cycles need = std::max(0.0, want - already);
                if (need <= quota * (1.0 + 1e-12)) {
                    granted_[i] += need;
                    consumed += need;
                } else {
                    granted_[i] += quota;
                    consumed += quota;
                    hungry_idx_.push_back(i);
                }
            }
            remaining -= consumed;
            if (hungry_idx_.size() == active_idx_.size())
                break;  // Everyone hungry: quotas fully used.
            std::swap(active_idx_, hungry_idx_);
        }
    }
    return capacity;
}

void
Scheduler::distribute(CoreId core, const std::vector<TaskId>& ids,
                      SimTime now, SimTime dt)
{
    const hw::Cluster& cl = chip_->cluster(chip_->cluster_of(core));
    const hw::CoreClass cls = cl.type().core_class;
    const Cycles capacity = fill_granted(core, ids, now, dt);

    // Advance tasks and update signals.
    Cycles used_total = 0.0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Entry& e = entry(ids[i]);
        const Cycles g = granted_[i];
        used_total += g;
        e.task->advance(now, dt, g, cls);
        e.supply_last = g / kCyclesPerPuSecond / to_seconds(dt);
        const bool runnable_now = e.blocked_until <= now;
        const double share = capacity > 0.0 ? g / capacity : 0.0;
        // Runnable fraction (PELT-like): a task that still wants more
        // cycles was runnable for the whole tick; a self-paced task
        // that got everything it asked for slept the rest of it.
        // (wf_want_ was gathered by fill_granted before any advance.)
        const Cycles want = wf_want_[i];
        double runnable_frac = 0.0;
        if (runnable_now)
            runnable_frac = g + 1e-6 >= want ? share : 1.0;
        e.load_ewma += load_weight_ * (runnable_frac - e.load_ewma);
    }
    core_util_[static_cast<std::size_t>(core)] =
        capacity > 0.0 ? std::min(1.0, used_total / capacity) : 0.0;
}

void
Scheduler::use_dt(SimTime dt)
{
    if (dt == load_weight_dt_)
        return;
    load_weight_ = 1.0 - std::exp(-to_seconds(dt) / kLoadTauSeconds);
    load_weight_dt_ = dt;
}

void
Scheduler::tick(SimTime now, SimTime dt)
{
    PPM_ASSERT(dt > 0, "tick must be positive");
    use_dt(dt);
    for (CoreId c = 0; c < chip_->num_cores(); ++c)
        distribute(c, core_tasks_[static_cast<std::size_t>(c)], now, dt);
}

bool
Scheduler::replay_cache_reusable(SimTime dt) const
{
    if (!replay_cache_valid_ || dt != replay_dt_ || !replay_all_unblocked_)
        return false;
    for (std::size_t v = 0; v < replay_supplies_.size(); ++v) {
        if (chip_->cluster(static_cast<ClusterId>(v)).supply() !=
            replay_supplies_[v])
            return false;
    }
    for (const ReplaySlot& s : replay_slots_) {
        if (s.task->phase_index() != s.phase_idx)
            return false;
    }
    return true;
}

bool
Scheduler::begin_replay(SimTime now, SimTime dt)
{
    PPM_ASSERT(dt > 0, "tick must be positive");
    // Keyed here on a hit too: the replay paths read the weight.
    use_dt(dt);
    if (replay_cache_reusable(dt))
        return true;  // The cached slots and observables are still exact.
    // A latched verdict belongs to the slots it was checked on.
    replay_steady_hold_ = false;
    replay_slots_.clear();
    for (CoreId c = 0; c < chip_->num_cores(); ++c) {
        const auto& ids = core_tasks_[static_cast<std::size_t>(c)];
        const hw::Cluster& cl = chip_->cluster(chip_->cluster_of(c));
        const hw::CoreClass cls = cl.type().core_class;
        const Cycles capacity = fill_granted(c, ids, now, dt);
        Cycles used_total = 0.0;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            Entry& e = entry(ids[i]);
            const Cycles g = granted_[i];
            used_total += g;
            ReplaySlot s;
            s.task = e.task;
            s.entry = static_cast<std::size_t>(ids[i]);
            s.beats = g / e.task->work_per_hb(cls);
            s.supplied = g / kCyclesPerPuSecond;
            e.supply_last = g / kCyclesPerPuSecond / to_seconds(dt);
            const double share = capacity > 0.0 ? g / capacity : 0.0;
            const bool runnable_now = e.blocked_until <= now;
            const Cycles want = wf_want_[i];
            s.runnable_frac = 0.0;
            if (runnable_now)
                s.runnable_frac = g + 1e-6 >= want ? share : 1.0;
            replay_slots_.push_back(s);
        }
        core_util_[static_cast<std::size_t>(c)] =
            capacity > 0.0 ? std::min(1.0, used_total / capacity) : 0.0;
    }

    // Condition the cache (see replay_cache_reusable).  blocked_until
    // never decreases and only grows through migrate(), so an interval
    // that starts with every active task runnable stays representative
    // for any later start time while no invalidating mutation occurs.
    replay_dt_ = dt;
    replay_all_unblocked_ = true;
    for (const Entry& e : entries_) {
        if (e.active && e.blocked_until > now)
            replay_all_unblocked_ = false;
    }
    replay_supplies_.clear();
    for (const auto& cl : chip_->clusters())
        replay_supplies_.push_back(cl.supply());
    for (ReplaySlot& s : replay_slots_)
        s.phase_idx = s.task->phase_index();
    replay_cache_valid_ = true;
    return false;
}

void
Scheduler::replay_tick(SimTime now, SimTime dt)
{
    for (const ReplaySlot& s : replay_slots_) {
        s.task->replay_advance(now, dt, s.beats, s.supplied);
        Entry& e = entries_[s.entry];
        e.load_ewma += load_weight_ * (s.runnable_frac - e.load_ewma);
    }
}

bool
Scheduler::replay_bulk_ready(SimTime now, SimTime dt) const
{
    // A steady verdict persists while the slot cache keeps hitting:
    // bulk advances and cached boundary ticks only shift the steady
    // windows and re-apply fixed-point EWMA updates, neither of which
    // changes a bit of the checked state.  Any change to the
    // water-fill's inputs makes the next begin_replay() miss, which
    // rebuilds the slots and drops the verdict.
    if (replay_steady_hold_)
        return true;
    for (const ReplaySlot& s : replay_slots_) {
        const Entry& e = entries_[s.entry];
        // The load EWMA must be at its floating-point fixed point: one
        // more update step must reproduce the same bits.
        if (!bit_equal(
                e.load_ewma +
                    load_weight_ * (s.runnable_frac - e.load_ewma),
                e.load_ewma))
            return false;
        if (!s.task->replay_steady(now, dt, s.beats, s.supplied))
            return false;
    }
    replay_steady_hold_ = true;
    return true;
}

void
Scheduler::replay_bulk(long n, SimTime dt)
{
    for (const ReplaySlot& s : replay_slots_)
        s.task->replay_bulk(n, dt);
}

long
Scheduler::replay_span(long n, SimTime now, SimTime dt, SpanHits* hits)
{
    // Slots are independent objects, so each runs its whole span
    // before the next; only each object's own sequence must keep the
    // per-tick order.
    long iterated = 0;
    for (const ReplaySlot& s : replay_slots_) {
        iterated += s.task->replay_span(
            n, now, dt, s.beats, s.supplied,
            hits != nullptr ? hits + s.entry : nullptr);
    }
    replay_ewma_bulk(n);
    return iterated;
}

void
Scheduler::replay_ewma_bulk(long n)
{
    for (long k = 0; k < n; ++k) {
        for (const ReplaySlot& s : replay_slots_) {
            Entry& e = entries_[s.entry];
            e.load_ewma +=
                load_weight_ * (s.runnable_frac - e.load_ewma);
        }
    }
}

double
Scheduler::core_utilization(CoreId core) const
{
    PPM_ASSERT(core >= 0 && core < chip_->num_cores(),
               "core id out of range");
    return core_util_[static_cast<std::size_t>(core)];
}

double
Scheduler::task_load(TaskId t) const
{
    return entry(t).load_ewma;
}

Pu
Scheduler::task_supply_last(TaskId t) const
{
    return entry(t).supply_last;
}

} // namespace ppm::sched
