#include "workload/hrm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ppm::workload {

HeartRateMonitor::HeartRateMonitor(double min_hr, double max_hr,
                                   SimTime window)
    : min_hr_(min_hr), max_hr_(max_hr), beats_(window), supply_(window)
{
    PPM_ASSERT((min_hr == 0.0 && max_hr == 0.0) ||
                   (min_hr > 0.0 && max_hr >= min_hr),
               "reference heart-rate range must satisfy 0 < min <= max "
               "(or min == max == 0 for no range)");
}

void
HeartRateMonitor::record(SimTime now, double beats,
                         double supplied_pu_seconds)
{
    beats_.add(now, beats);
    supply_.add(now, supplied_pu_seconds);
}

long
HeartRateMonitor::record_span(SimTime t0, SimTime dt, long n, double beats,
                              double supplied_pu_seconds, SpanHits* hits)
{
    return beats_.add_span(t0, dt, n, beats, hits, band()) +
        supply_.add_span(t0, dt, n, supplied_pu_seconds);
}

double
HeartRateMonitor::heart_rate(SimTime now) const
{
    return beats_.rate(now);
}

Pu
HeartRateMonitor::supply(SimTime now) const
{
    // supply_ accumulates PU-seconds; its windowed rate is average PU.
    return supply_.rate(now);
}

bool
HeartRateMonitor::below_range(SimTime now) const
{
    return band().below(heart_rate(now));
}

bool
HeartRateMonitor::outside_range(SimTime now) const
{
    return band().outside(heart_rate(now));
}

bool
HeartRateMonitor::replay_steady(SimTime now, SimTime dt, double beats,
                                double supplied_pu_seconds) const
{
    return beats_.replay_steady(now, dt, beats) &&
        supply_.replay_steady(now, dt, supplied_pu_seconds);
}

void
HeartRateMonitor::advance_steady(SimTime shift)
{
    beats_.advance_steady(shift);
    supply_.advance_steady(shift);
}

Pu
HeartRateMonitor::estimate_demand(SimTime now, Pu clamp) const
{
    if (!has_range())
        return 0.0;  // No QoS goal: nothing to demand.
    const double hr = heart_rate(now);
    const Pu s = supply(now);
    if (hr <= 1e-9 || s <= 1e-9)
        return clamp;  // Starved or cold: maximally hungry.
    return std::clamp(target_hr() * s / hr, 0.0, clamp);
}

} // namespace ppm::workload
