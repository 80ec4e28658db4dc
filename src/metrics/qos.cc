#include "metrics/qos.hh"

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace ppm::metrics {

QosTracker::QosTracker(int num_tasks)
    : below_(static_cast<std::size_t>(num_tasks)),
      outside_(static_cast<std::size_t>(num_tasks))
{
    PPM_ASSERT(num_tasks > 0, "QosTracker needs at least one task");
}

void
QosTracker::sample(const std::vector<workload::Task*>& tasks, SimTime now,
                   SimTime dt, SimTime warmup,
                   const std::vector<bool>* alive)
{
    PPM_ASSERT(tasks.size() == below_.size(), "task count mismatch");
    PPM_ASSERT(alive == nullptr || alive->size() == tasks.size(),
               "alive mask size mismatch");
    if (now < warmup)
        return;
    bool any_b = false;
    bool any_o = false;
    bool any_alive = false;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (alive != nullptr && !(*alive)[i])
            continue;
        any_alive = true;
        // One heart-rate read per task: below_range()/outside_range()
        // would each re-derive the windowed rate.
        const workload::HeartRateMonitor& h = tasks[i]->hrm();
        const double hr = h.heart_rate(now);
        const RateBand band = h.band();
        const bool b = band.below(hr);
        const bool o = band.outside(hr);
        below_[i].add(b, dt);
        outside_[i].add(o, dt);
        any_b = any_b || b;
        any_o = any_o || o;
    }
    // An interval with no live task has no QoS to meet or miss:
    // counting it as "meeting QoS" would deflate the any-task miss
    // fractions of lifetime scenarios with idle gaps, so it must not
    // enter the any-* denominators at all.
    if (any_alive) {
        any_below_.add(any_b, dt);
        any_outside_.add(any_o, dt);
    }
}

void
QosTracker::sample_span(long n, SimTime dt, const SpanHits* hits,
                        const std::vector<bool>* alive)
{
    PPM_ASSERT(alive == nullptr || alive->size() == below_.size(),
               "alive mask size mismatch");
    PPM_ASSERT(n >= 0 && n <= SpanHits::kMaxTicks,
               "span longer than SpanHits::kMaxTicks");
    // The any-task channels OR the per-task masks tick by tick.
    const auto add_counts = [n, dt](DutyCycle& d, std::uint64_t bits) {
        const long k = std::popcount(bits);
        d.add(true, k * dt);
        d.add(false, (n - k) * dt);
    };
    std::uint64_t any_b = 0;
    std::uint64_t any_o = 0;
    bool any_alive = false;
    for (std::size_t i = 0; i < below_.size(); ++i) {
        if (alive != nullptr && !(*alive)[i])
            continue;
        any_alive = true;
        add_counts(below_[i], hits[i].below);
        add_counts(outside_[i], hits[i].outside);
        any_b |= hits[i].below;
        any_o |= hits[i].outside;
    }
    if (any_alive) {
        add_counts(any_below_, any_b);
        add_counts(any_outside_, any_o);
    }
}

double
QosTracker::task_below_fraction(TaskId t) const
{
    PPM_ASSERT(t >= 0 && static_cast<std::size_t>(t) < below_.size(),
               "task id out of range");
    return below_[static_cast<std::size_t>(t)].fraction();
}

double
QosTracker::task_outside_fraction(TaskId t) const
{
    PPM_ASSERT(t >= 0 && static_cast<std::size_t>(t) < outside_.size(),
               "task id out of range");
    return outside_[static_cast<std::size_t>(t)].fraction();
}

double
QosTracker::any_below_fraction() const
{
    return any_below_.fraction();
}

double
QosTracker::any_outside_fraction() const
{
    return any_outside_.fraction();
}

} // namespace ppm::metrics
