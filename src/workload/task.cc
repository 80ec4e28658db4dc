#include "workload/task.hh"

#include <limits>

#include "common/logging.hh"

namespace ppm::workload {

TaskSpec
steady_task_spec(const std::string& name, int priority, Pu demand_little,
                 double big_speedup, double target_hr,
                 double self_pace_hr)
{
    PPM_ASSERT(demand_little > 0.0, "demand must be positive");
    PPM_ASSERT(big_speedup >= 1.0, "speedup must be >= 1");
    PPM_ASSERT(target_hr > 0.0, "target heart rate must be positive");
    TaskSpec spec;
    spec.name = name;
    spec.priority = priority;
    spec.min_hr = 0.95 * target_hr;
    spec.max_hr = 1.05 * target_hr;
    spec.self_pace_hr = self_pace_hr;
    const Cycles w_little =
        demand_little * kCyclesPerPuSecond / target_hr;
    spec.phases.push_back(Phase{
        365LL * 24 * 3600 * kSecond, w_little, w_little / big_speedup});
    return spec;
}

Task::Task(TaskId id, TaskSpec spec)
    : id_(id), spec_(std::move(spec)),
      hrm_(spec_.min_hr, spec_.max_hr)
{
    PPM_ASSERT(!spec_.phases.empty(), "task needs at least one phase");
    PPM_ASSERT(spec_.priority >= 1, "priority must be >= 1");
    for (const Phase& p : spec_.phases) {
        PPM_ASSERT(p.duration > 0, "phase duration must be positive");
        PPM_ASSERT(p.work_per_hb_little > 0.0 && p.work_per_hb_big > 0.0,
                   "phase work must be positive");
    }
}

const Phase&
Task::current_phase() const
{
    return spec_.phases[static_cast<std::size_t>(phase_idx_)];
}

Cycles
Task::work_per_hb(hw::CoreClass cls) const
{
    const Phase& p = current_phase();
    return cls == hw::CoreClass::kBig ? p.work_per_hb_big
                                      : p.work_per_hb_little;
}

Pu
Task::true_demand(hw::CoreClass cls) const
{
    // demand [PU] = target_hr [hb/s] * work [cycles/hb] / 1e6.
    return hrm_.target_hr() * work_per_hb(cls) / kCyclesPerPuSecond;
}

Cycles
Task::desired_cycles(SimTime dt, hw::CoreClass cls) const
{
    if (spec_.self_pace_hr <= 0.0)
        return std::numeric_limits<Cycles>::max();
    return spec_.self_pace_hr * to_seconds(dt) * work_per_hb(cls);
}

void
Task::advance_phase_clock(SimTime dt)
{
    time_in_phase_ += dt;
    while (time_in_phase_ >= current_phase().duration) {
        time_in_phase_ -= current_phase().duration;
        phase_idx_ = (phase_idx_ + 1)
            % static_cast<int>(spec_.phases.size());
    }
}

void
Task::advance(SimTime now, SimTime dt, Cycles granted, hw::CoreClass cls)
{
    PPM_ASSERT(granted >= 0.0, "granted cycles must be non-negative");
    // Supply in PU-seconds: cycles / 1e6.
    hrm_.record(now + dt, granted / work_per_hb(cls),
                granted / kCyclesPerPuSecond);
    advance_phase_clock(dt);
}

void
Task::replay_advance(SimTime now, SimTime dt, double beats,
                     double supplied_pu_seconds)
{
    hrm_.record(now + dt, beats, supplied_pu_seconds);
    advance_phase_clock(dt);
}

bool
Task::replay_steady(SimTime now, SimTime dt, double beats,
                    double supplied_pu_seconds) const
{
    return hrm_.replay_steady(now, dt, beats, supplied_pu_seconds);
}

long
Task::replay_span(long n, SimTime now, SimTime dt, double beats,
                  double supplied_pu_seconds, SpanHits* hits)
{
    const long iterated =
        hrm_.record_span(now + dt, dt, n, beats, supplied_pu_seconds, hits);
    advance_phase_clock(n * dt);
    return iterated;
}

void
Task::replay_bulk(long n, SimTime dt)
{
    hrm_.advance_steady(n * dt);
    advance_phase_clock(n * dt);
}

SimTime
Task::phase_remaining() const
{
    return current_phase().duration - time_in_phase_;
}

} // namespace ppm::workload
