#include "fuzz/shrink.hh"

#include <optional>

#include "common/logging.hh"

namespace ppm::fuzz {
namespace {

/** Search state threaded through the shrink passes. */
struct Search {
    Scenario best;
    Violation found;
    int evaluations = 0;
    int budget = 0;
    const ShrinkOracle* oracle = nullptr;

    bool exhausted() const { return evaluations >= budget; }

    /**
     * Does `candidate` still reproduce the target violation?  On
     * success the candidate becomes the new best.
     */
    bool accept(const Scenario& candidate)
    {
        if (exhausted())
            return false;
        ++evaluations;
        for (const Violation& v : (*oracle)(candidate)) {
            if (v.invariant == found.invariant &&
                v.policy == found.policy) {
                best = candidate;
                found = v;
                return true;
            }
        }
        return false;
    }
};

/**
 * Task-count shrink: drop suffixes by bisection, then try removing
 * each task individually (greedy, restarting after a hit).
 */
void
shrink_tasks(Search& s)
{
    // Bisection on the prefix length.
    while (s.best.tasks.size() > 1 && !s.exhausted()) {
        Scenario half = s.best;
        half.tasks.resize((half.tasks.size() + 1) / 2);
        if (!s.accept(half))
            break;
    }
    // Greedy single removals.
    bool progressed = true;
    while (progressed && s.best.tasks.size() > 1 && !s.exhausted()) {
        progressed = false;
        for (std::size_t i = 0;
             i < s.best.tasks.size() && s.best.tasks.size() > 1;
             ++i) {
            Scenario cand = s.best;
            cand.tasks.erase(cand.tasks.begin() +
                             static_cast<std::ptrdiff_t>(i));
            if (s.accept(cand)) {
                progressed = true;
                break;  // Indices shifted; rescan.
            }
        }
    }
}

/** Duration shrink: binary search the shortest reproducing run. */
void
shrink_duration(Search& s)
{
    SimTime lo = s.best.warmup + kMillisecond;  // Must outlast warmup.
    SimTime hi = s.best.duration;
    while (lo < hi && !s.exhausted()) {
        // Midpoint on the millisecond grid, biased down.
        const SimTime mid =
            lo + ((hi - lo) / 2 / kMillisecond) * kMillisecond;
        if (mid >= hi)
            break;
        Scenario cand = s.best;
        cand.duration = mid;
        if (s.accept(cand))
            hi = mid;
        else
            lo = mid + kMillisecond;
    }
}

/** Drop fault classes one at a time, then bisect the rate down. */
void
shrink_faults(Search& s)
{
    if (!s.best.has_faults)
        return;
    {
        Scenario cand = s.best;
        cand.has_faults = false;
        cand.faults = fault::FaultSpec{};
        if (s.accept(cand))
            return;  // Faults were irrelevant; nothing left to trim.
    }
    for (int which = 0; which < 4 && !s.exhausted(); ++which) {
        Scenario cand = s.best;
        bool* flag = which == 0   ? &cand.faults.sensor
                     : which == 1 ? &cand.faults.dvfs
                     : which == 2 ? &cand.faults.migration
                                  : &cand.faults.offline;
        if (!*flag)
            continue;
        *flag = false;
        if (cand.faults.any())
            s.accept(cand);
    }
    // Halve the event rate while the violation survives.
    while (s.best.faults.rate_per_min > 1.0 && !s.exhausted()) {
        Scenario cand = s.best;
        cand.faults.rate_per_min /= 2.0;
        if (!s.accept(cand))
            break;
    }
}

/**
 * Chip-level fault shrink, run FIRST in the fixpoint loop: a
 * violation that survives with the fleet-fault plan gone is not a
 * failure-handling bug, and dropping the whole plan early spares
 * every later pass the (expensive) faulted-fleet differentials.
 * While the plan stays load-bearing, drop classes one at a time and
 * halve the transition rate.
 */
void
shrink_fleet_faults(Search& s)
{
    if (!s.best.has_fleet_faults)
        return;
    {
        Scenario cand = s.best;
        cand.has_fleet_faults = false;
        cand.faults.chip_fail = false;
        cand.faults.chip_degrade = false;
        cand.faults.chip_recover = false;
        if (s.accept(cand))
            return;  // Chip faults were irrelevant.
    }
    if (s.best.faults.chip_recover) {
        Scenario cand = s.best;
        cand.faults.chip_recover = false;
        s.accept(cand);
    }
    if (s.best.faults.chip_fail && s.best.faults.chip_degrade) {
        Scenario cand = s.best;
        cand.faults.chip_degrade = false;
        if (!s.accept(cand)) {
            cand = s.best;
            cand.faults.chip_fail = false;
            s.accept(cand);
        }
    }
    while (s.best.faults.chip_rate_per_min > 0.5 && !s.exhausted()) {
        Scenario cand = s.best;
        cand.faults.chip_rate_per_min /= 2.0;
        if (!s.accept(cand))
            break;
    }
}

/**
 * Try the full-recompute path before anything else: a violation that
 * survives with incrementality off is not a dirty-set bug, so the
 * surviving fixture localizes it elsewhere -- and one that only
 * reproduces with the incremental engine pins the blame on a skip
 * rule.  (The incremental differential itself always runs both
 * modes; this gene only selects the primary runs' mode.)
 */
void
shrink_incremental(Search& s)
{
    if (s.best.incremental) {
        Scenario cand = s.best;
        cand.incremental = false;
        s.accept(cand);
    }
}

/** Try zeroing whole structural dimensions in one shot each. */
void
shrink_structure(Search& s)
{
    // Lifetimes -> everyone runs the whole simulation.
    {
        Scenario cand = s.best;
        for (TaskGene& g : cand.tasks) {
            g.arrival = 0;
            g.departure = sim::SimConfig::Lifetime::kForever;
        }
        s.accept(cand);
    }
    // Placement -> default round-robin.
    {
        Scenario cand = s.best;
        for (TaskGene& g : cand.tasks)
            g.core = kInvalidId;
        s.accept(cand);
    }
    // Phase structure -> steady tasks.
    {
        Scenario cand = s.best;
        for (TaskGene& g : cand.tasks) {
            g.n_phases = 1;
            g.phase_amp = 0.0;
        }
        s.accept(cand);
    }
    // Tracing off (unless the violation is about the traces, in
    // which case the reproduce check fails and best is kept).
    if (s.best.trace) {
        Scenario cand = s.best;
        cand.trace = false;
        s.accept(cand);
    }
    // Governor knobs back to defaults.
    if (s.best.online_speedup) {
        Scenario cand = s.best;
        cand.online_speedup = false;
        s.accept(cand);
    }
    if (s.best.adaptive_step) {
        Scenario cand = s.best;
        cand.adaptive_step = false;
        s.accept(cand);
    }
    // Snapshot differential off (sticks unless the violation is the
    // restore-equivalence itself).
    if (s.best.snapshot_at > 0) {
        Scenario cand = s.best;
        cand.snapshot_at = 0;
        s.accept(cand);
    }
    // Defederate (fleet invariants only need > 1 chip to trigger, so
    // this sticks only for violations the 1-chip fleet reproduces).
    // Chip faults are inert on one chip; clear them with it so the
    // surviving fixture reads clean.
    if (s.best.fleet_chips > 1) {
        Scenario cand = s.best;
        cand.fleet_chips = 1;
        cand.has_fleet_faults = false;
        cand.faults.chip_fail = false;
        cand.faults.chip_degrade = false;
        cand.faults.chip_recover = false;
        s.accept(cand);
    }
    // Uncap the TDP.
    if (s.best.tdp > 0.0) {
        Scenario cand = s.best;
        cand.tdp = 0.0;
        s.accept(cand);
    }
}

} // namespace

ShrinkResult
shrink(const Scenario& sc, const Violation& target,
       int max_evaluations, const ShrinkOracle& oracle)
{
    PPM_ASSERT(max_evaluations >= 1,
               "shrink needs a positive evaluation budget");
    PPM_ASSERT(oracle != nullptr, "shrink needs a violation oracle");
    Search s;
    s.best = sc;
    s.found = target;
    s.budget = max_evaluations;
    s.oracle = &oracle;
    // Verify the input actually reproduces; everything downstream
    // (fixtures, regression tests) depends on it.
    {
        Scenario copy = sc;
        PPM_ASSERT(s.accept(copy),
                   "shrink input does not reproduce the violation");
    }

    // Fixpoint iteration: each pass can unlock the others (fewer
    // tasks make shorter runs reproduce and vice versa).
    for (int round = 0; round < 4 && !s.exhausted(); ++round) {
        const std::string before = serialize(s.best);
        shrink_fleet_faults(s);
        shrink_incremental(s);
        shrink_tasks(s);
        shrink_faults(s);
        shrink_structure(s);
        shrink_duration(s);
        if (serialize(s.best) == before)
            break;
    }

    ShrinkResult result;
    result.scenario = s.best;
    result.violation = s.found;
    result.evaluations = s.evaluations;
    return result;
}

} // namespace ppm::fuzz
