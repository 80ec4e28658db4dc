#include "probe.hh"

#include <utility>

namespace perfbench {

void
GovernorCalls::merge(const GovernorCalls& o)
{
    wake.merge(o.wake);
    poll.merge(o.poll);
    horizon.merge(o.horizon);
    other.merge(o.other);
    replay_intervals += o.replay_intervals;
    replayed_ticks += o.replayed_ticks;
    power_vetoes += o.power_vetoes;
}

GovernorProbe::GovernorProbe(std::unique_ptr<ppm::sim::Governor> inner,
                             GovernorCalls* calls, ShardMarks* marks)
    : inner_(std::move(inner)), calls_(calls), marks_(marks)
{
}

void
GovernorProbe::stepping(CallStats& s, std::int64_t t0,
                        std::int64_t t1) const
{
    s.add(t1 - t0);
    if (marks_ != nullptr) {
        if (marks_->first_ns == 0)
            marks_->first_ns = t0;
        marks_->last_ns = t1;
    }
}

std::string
GovernorProbe::name() const
{
    const std::int64_t t0 = now_ns();
    std::string n = inner_->name();
    calls_->other.add(now_ns() - t0);
    return n;
}

void
GovernorProbe::init(ppm::sim::Simulation& sim)
{
    const std::int64_t t0 = now_ns();
    inner_->init(sim);
    stepping(calls_->other, t0, now_ns());
}

void
GovernorProbe::tick(ppm::sim::Simulation& sim, ppm::SimTime now,
                    ppm::SimTime dt)
{
    // next_wake() is a const observation, so asking it here to
    // classify the call cannot change what tick() then does.
    const bool wake = inner_->next_wake(now) <= now;
    const std::int64_t t0 = now_ns();
    inner_->tick(sim, now, dt);
    stepping(wake ? calls_->wake : calls_->poll, t0, now_ns());
}

ppm::SimTime
GovernorProbe::next_wake(ppm::SimTime now) const
{
    const std::int64_t t0 = now_ns();
    const ppm::SimTime w = inner_->next_wake(now);
    stepping(calls_->horizon, t0, now_ns());
    return w;
}

bool
GovernorProbe::quiescent(const ppm::sim::Simulation& sim) const
{
    const std::int64_t t0 = now_ns();
    const bool q = inner_->quiescent(sim);
    stepping(calls_->horizon, t0, now_ns());
    return q;
}

bool
GovernorProbe::quiescent_at_power(ppm::Watts chip_power) const
{
    const std::int64_t t0 = now_ns();
    const bool q = inner_->quiescent_at_power(chip_power);
    stepping(calls_->horizon, t0, now_ns());
    if (!q)
        ++calls_->power_vetoes;
    return q;
}

void
GovernorProbe::replay_quiescent(const ppm::sim::Simulation& sim,
                                const std::vector<ppm::Watts>& cluster_power,
                                long n)
{
    const std::int64_t t0 = now_ns();
    inner_->replay_quiescent(sim, cluster_power, n);
    stepping(calls_->horizon, t0, now_ns());
    ++calls_->replay_intervals;
    calls_->replayed_ticks += n;
}

void
GovernorProbe::set_power_budget(ppm::Watts w_tdp)
{
    const std::int64_t t0 = now_ns();
    inner_->set_power_budget(w_tdp);
    calls_->other.add(now_ns() - t0);
}

double
GovernorProbe::power_deficit() const
{
    const std::int64_t t0 = now_ns();
    const double d = inner_->power_deficit();
    calls_->other.add(now_ns() - t0);
    return d;
}

void
GovernorProbe::task_admitted(ppm::sim::Simulation& sim, ppm::TaskId id,
                             double big_speedup)
{
    const std::int64_t t0 = now_ns();
    inner_->task_admitted(sim, id, big_speedup);
    calls_->other.add(now_ns() - t0);
}

ppm::sim::ClearingStats
GovernorProbe::clearing_stats() const
{
    const std::int64_t t0 = now_ns();
    const ppm::sim::ClearingStats cs = inner_->clearing_stats();
    calls_->other.add(now_ns() - t0);
    return cs;
}

ppm::sim::AdmitReject
GovernorProbe::admission_check() const
{
    const std::int64_t t0 = now_ns();
    const ppm::sim::AdmitReject r = inner_->admission_check();
    calls_->other.add(now_ns() - t0);
    return r;
}

void
GovernorProbe::save(ppm::snap::Writer& w) const
{
    const std::int64_t t0 = now_ns();
    inner_->save(w);
    calls_->other.add(now_ns() - t0);
}

void
GovernorProbe::load(ppm::snap::Reader& r)
{
    const std::int64_t t0 = now_ns();
    inner_->load(r);
    calls_->other.add(now_ns() - t0);
}

namespace {

double
ratio(long a, long b)
{
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

} // namespace

void
accumulate(ppm::sim::ClearingStats& into, const ppm::sim::ClearingStats& add)
{
    into.rounds += add.rounds;
    into.task_slots += add.task_slots;
    into.tasks_skipped += add.tasks_skipped;
    into.core_slots += add.core_slots;
    into.cores_skipped += add.cores_skipped;
    into.rounds_early_exit += add.rounds_early_exit;
}

void
governor_metrics(std::map<std::string, Metric>& out, const std::string& policy,
                 const GovernorCalls& k, long runs)
{
    const std::string g = "governor." + policy + ".";
    out[g + "wakes"] = {static_cast<double>(k.wake.count), "count", runs};
    out[g + "wake_s"] = {ns_to_s(k.wake.total_ns), "s", k.wake.count};
    out[g + "wake_us_p50"] = {k.wake.percentile_ns(50) * 1e-3, "us",
                              k.wake.count};
    out[g + "wake_us_p99"] = {k.wake.percentile_ns(99) * 1e-3, "us",
                              k.wake.count};
    out[g + "poll_s"] = {ns_to_s(k.poll.total_ns), "s", k.poll.count};
    out[g + "horizon_s"] = {ns_to_s(k.horizon.total_ns), "s",
                            k.horizon.count};
}

void
engine_metrics(std::map<std::string, Metric>& out, const GovernorCalls& all,
               long ticks, long runs)
{
    out["sim.steps"] = {static_cast<double>(all.wake.count + all.poll.count),
                        "count", runs};
    out["sim.replay_intervals"] = {static_cast<double>(all.replay_intervals),
                                   "count", runs};
    out["sim.replayed_ticks"] = {static_cast<double>(all.replayed_ticks),
                                 "count", runs};
    out["sim.replay_len_mean"] = {
        ratio(all.replayed_ticks, all.replay_intervals), "ticks",
        all.replay_intervals};
    out["sim.replayed_tick_share"] = {ratio(all.replayed_ticks, ticks),
                                      "ratio", ticks};
    out["sim.power_vetoes"] = {static_cast<double>(all.power_vetoes), "count",
                               runs};
}

void
market_metrics(std::map<std::string, Metric>& out,
               const ppm::sim::ClearingStats& m, long runs)
{
    out["market.rounds"] = {static_cast<double>(m.rounds), "count", runs};
    out["market.task_skip_rate"] = {ratio(m.tasks_skipped, m.task_slots),
                                    "ratio", m.task_slots};
    out["market.core_skip_rate"] = {ratio(m.cores_skipped, m.core_slots),
                                    "ratio", m.core_slots};
    out["market.early_exit_rate"] = {ratio(m.rounds_early_exit, m.rounds),
                                     "ratio", m.rounds};
}

} // namespace perfbench
