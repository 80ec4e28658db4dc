/**
 * @file
 * The paper's nine multiprogrammed workload sets (Table 6) and the
 * intensity metric used to classify them:
 *
 *   intensity = (sum_t d_t^A7 - S_A7^maxfreq) / S_A7^maxfreq,
 *
 * i.e. how far the total LITTLE-core demand of the set exceeds the
 * LITTLE cluster's supply at its maximum frequency.  We read
 * S_A7^maxfreq as the cluster's *aggregate* supply (3 cores x
 * 1000 PU), which is the quantity that actually decides whether all
 * tasks can be satisfied on the LITTLE cluster (see DESIGN.md).
 * Sets are light (intensity <= 0), medium (0 < intensity <= 0.30)
 * or heavy (> 0.30).
 */

#ifndef PPM_WORKLOAD_SETS_HH
#define PPM_WORKLOAD_SETS_HH

#include <string>
#include <vector>

#include "workload/benchmarks.hh"

namespace ppm::workload {

/** Intensity classification of a workload set. */
enum class IntensityClass { kLight, kMedium, kHeavy };

/** Name of an intensity class ("light" / "medium" / "heavy"). */
const char* intensity_class_name(IntensityClass c);

/** One member task of a workload set. */
struct SetMember {
    Benchmark bench;
    Input input;
};

/** A named multiprogrammed workload set. */
struct WorkloadSet {
    std::string name;               ///< "l1" .. "h3".
    IntensityClass expected_class;  ///< Class per Table 6.
    std::vector<SetMember> members; ///< Six tasks.
};

/** All nine Table 6 sets: l1-l3, m1-m3, h1-h3. */
const std::vector<WorkloadSet>& standard_workload_sets();

/** Look up a set by name; fatal() if unknown. */
const WorkloadSet& workload_set(const std::string& name);

/**
 * Intensity of a set given the LITTLE cluster's maximum supply
 * (1000 PU on the TC2-like platform).
 */
double intensity(const WorkloadSet& set, Pu little_max_supply);

/** Classify an intensity value per the paper's thresholds. */
IntensityClass classify_intensity(double intensity_value);

/**
 * Instantiate the tasks of a set.  Task i uses seed `base_seed + i`
 * for phase jitter and priority `priority` (the comparative study
 * runs all tasks at equal priority).
 */
std::vector<TaskSpec> instantiate(const WorkloadSet& set,
                                  std::uint64_t base_seed,
                                  int priority = 1,
                                  SimTime horizon = 700 * kSecond);

/**
 * Each member's offline-profiled big/LITTLE speedup, in member order:
 * what PPM's demand estimator takes as PpmGovernorConfig::big_speedup.
 */
std::vector<double> big_speedups(const WorkloadSet& set);

} // namespace ppm::workload

#endif // PPM_WORKLOAD_SETS_HH
