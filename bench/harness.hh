/**
 * @file
 * Thin compatibility shim: the benchmark harness lives in the library
 * proper (experiment/experiment.hh, experiment/sweep.hh) so downstream
 * code can use it too.  Adds the shared `--jobs N` argument parser
 * every bench driver wires into the sweep runner.
 */

#ifndef PPM_BENCH_HARNESS_HH
#define PPM_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "experiment/experiment.hh"
#include "experiment/sweep.hh"

namespace ppm::bench {

using RunParams = experiment::RunParams;
using RunResult = experiment::RunResult;
using SweepConfig = experiment::SweepConfig;
using SweepResult = experiment::SweepResult;
using experiment::aggregate_summaries;
using experiment::make_governor;
using experiment::run_cells;
using experiment::run_set;
using experiment::run_set_avg;
using experiment::run_specs;
using experiment::run_sweep;

/**
 * Parse `--jobs N` from a bench driver's argv: N threads, the calling
 * thread included.  Returns 0 (= one thread per hardware thread) when
 * absent; exits with usage on a malformed value.  Results are
 * identical for every jobs value -- the flag only trades wall-clock
 * time for cores.
 */
inline int
jobs_arg(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            const int jobs = std::atoi(argv[i + 1]);
            if (jobs < 0) {
                std::fprintf(stderr, "usage: %s [--jobs N]\n", argv[0]);
                std::exit(2);
            }
            return jobs;
        }
    }
    return 0;
}

} // namespace ppm::bench

#endif // PPM_BENCH_HARNESS_HH
