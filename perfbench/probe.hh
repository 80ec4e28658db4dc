/**
 * @file
 * Forwarding governor probe: wraps any sim::Governor, forwards every
 * virtual unchanged, and times the calls the engine makes into it.
 *
 * Governor calls are far too many for spans (a per-tick sweep makes
 * millions), so the probe keeps a count, total nanoseconds and a log2
 * histogram per call class instead.  It only observes: the wrapped
 * governor sees exactly the calls, in exactly the order, it would see
 * unwrapped, so a traced run must reproduce every untraced output.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/governor.hh"

namespace perfbench {

/** Probe totals of one run (or, merged, of one policy). */
struct GovernorCalls {
    CallStats wake;     ///< tick() calls at or after next_wake().
    CallStats poll;     ///< tick() calls before the next wake.
    CallStats horizon;  ///< next_wake, quiescent, quiescent_at_power,
                        ///< replay_quiescent.
    CallStats other;    ///< Every other forwarded call.
    long replay_intervals = 0;  ///< replay_quiescent() calls.
    long replayed_ticks = 0;    ///< Sum of their n.
    long power_vetoes = 0;      ///< quiescent_at_power() == false.

    void merge(const GovernorCalls& o);

    /** Host time spent inside the wrapped governor. */
    std::int64_t total_ns() const
    {
        return wake.total_ns + poll.total_ns + horizon.total_ns +
            other.total_ns;
    }
};

/**
 * First and last engine-stepping callback of one fleet shard within
 * the current epoch (0 = none yet).  Written only by the thread
 * stepping the shard; read and reset by the control thread between
 * epochs, which the pool's join orders.
 */
struct ShardMarks {
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;
};

class GovernorProbe final : public ppm::sim::Governor
{
  public:
    /**
     * @param inner Governor under test (owned).
     * @param calls Where to count (not owned; outlives the probe's
     *              use).
     * @param marks Optional per-epoch marks (fleet shards only).
     */
    GovernorProbe(std::unique_ptr<ppm::sim::Governor> inner,
                  GovernorCalls* calls, ShardMarks* marks = nullptr);

    std::string name() const override;
    void init(ppm::sim::Simulation& sim) override;
    void tick(ppm::sim::Simulation& sim, ppm::SimTime now,
              ppm::SimTime dt) override;
    ppm::SimTime next_wake(ppm::SimTime now) const override;
    bool quiescent(const ppm::sim::Simulation& sim) const override;
    bool quiescent_at_power(ppm::Watts chip_power) const override;
    void replay_quiescent(const ppm::sim::Simulation& sim,
                          const std::vector<ppm::Watts>& cluster_power,
                          long n) override;
    void set_power_budget(ppm::Watts w_tdp) override;
    double power_deficit() const override;
    void task_admitted(ppm::sim::Simulation& sim, ppm::TaskId id,
                       double big_speedup) override;
    ppm::sim::ClearingStats clearing_stats() const override;
    ppm::sim::AdmitReject admission_check() const override;
    void save(ppm::snap::Writer& w) const override;
    void load(ppm::snap::Reader& r) override;

  private:
    /** Account one engine-stepping callback spanning [t0, t1]. */
    void stepping(CallStats& s, std::int64_t t0, std::int64_t t1) const;

    std::unique_ptr<ppm::sim::Governor> inner_;
    GovernorCalls* calls_;
    ShardMarks* marks_;
};

/** Add `add`'s clearing counters into `into`, field by field. */
void accumulate(ppm::sim::ClearingStats& into,
                const ppm::sim::ClearingStats& add);

/** governor.<policy>.* from one policy's probe totals over `runs`. */
void governor_metrics(std::map<std::string, Metric>& out,
                      const std::string& policy, const GovernorCalls& k,
                      long runs);

/** sim.* counts seen through the probe over `ticks` simulated ticks. */
void engine_metrics(std::map<std::string, Metric>& out,
                    const GovernorCalls& all, long ticks, long runs);

/** market.* from clearing counters summed over `runs`. */
void market_metrics(std::map<std::string, Metric>& out,
                    const ppm::sim::ClearingStats& m, long runs);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
