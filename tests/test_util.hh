/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef PPM_TESTS_TEST_UTIL_HH
#define PPM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <string>

#include "workload/task.hh"

namespace ppm::test {

/**
 * A single-phase task spec whose demand on a LITTLE core is exactly
 * `demand_little` PU at the target heart rate.  Thin alias over the
 * library's workload::steady_task_spec.
 */
inline workload::TaskSpec
steady_spec(const std::string& name, int priority, Pu demand_little,
            double speedup = 1.6, double target_hr = 20.0,
            double self_pace = 0.0)
{
    return workload::steady_task_spec(name, priority, demand_little,
                                      speedup, target_hr, self_pace);
}

/** FNV-1a 64-bit of `bytes`: the digest the pinned fixtures use. */
inline std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace ppm::test

#endif // PPM_TESTS_TEST_UTIL_HH
