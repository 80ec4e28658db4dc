/**
 * @file
 * Shared plumbing of the repository benchmark: host clocks, log2
 * histograms, in-memory spans, the output gate and the metric sheet
 * every workload fills in.
 *
 * The benchmark drives the libraries from outside through their public
 * entry points only; nothing here is linked into a library.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
ns_to_s(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** FNV-1a 64 over `s`, chained from `h`. */
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** 16-digit lowercase hex. */
std::string hex64(std::uint64_t v);

/**
 * Linear-interpolated percentile (q in [0, 100]) of `v`, the same
 * rule as numpy's default; 0 for an empty sample.
 */
double percentile(std::vector<double> v, double q);

/** Median of `v` (0 when empty). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** Geometric mean of the positive values `v` (0 when empty). */
double geomean(const std::vector<double>& v);

/**
 * Highest of the percentiles 50, 90, 99, 99.9 that still has at least
 * ten samples beyond it, so a tail figure never rests on a handful of
 * points.  Returns the percentile chosen in `*q` (50 when the sample
 * is too small for any tail).
 */
double tail_percentile(const std::vector<double>& v, double* q);

/**
 * Count, total and log2 histogram of call durations.  Bucket b holds
 * durations in [2^b, 2^(b+1)) ns (bucket 0 also takes 0 and 1 ns).
 */
struct CallStats {
    long count = 0;
    std::int64_t total_ns = 0;
    std::array<long, 64> hist{};

    void add(std::int64_t ns);
    void merge(const CallStats& o);

    /** Percentile in ns, interpolated linearly inside its bucket. */
    double percentile_ns(double q) const;
};

/** One traced interval, recorded at a benchmark call boundary. */
struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;   ///< Enclosing span id; -1 = top level.
    long op = -1;      ///< Operation id (-1 = not part of one).
};

/**
 * In-memory span log.  Disabled (every call a no-op returning -1)
 * unless the run is traced; written out once, when the workload ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const char* name, int parent = -1, long op = -1);

    /** Close span `id` (ignored when -1). */
    void end(int id);

    /** Record a complete span from explicit timestamps. */
    int record(const char* name, std::int64_t start_ns,
               std::int64_t end_ns, int parent = -1, long op = -1);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** One metric of the result sheet. */
struct Metric {
    double value = 0.0;
    std::string unit;
    long samples = 0;   ///< Observations behind the value.
};

/**
 * The output gate.  An operation fails when its digest differs from
 * the recorded reference for this seed, when a restore disagrees with
 * the uninterrupted run, or when the fuzz harness reports a violation.
 */
class Gate
{
  public:
    /**
     * @param reference Recorded digest per operation key for this
     *                  seed; empty when the seed has no recorded table
     *                  (only internal consistency is then checked).
     */
    explicit Gate(std::map<std::string, std::string> reference)
        : reference_(std::move(reference))
    {
    }

    /** Count one operation; fails it when `key`'s reference differs. */
    bool check_reference(const std::string& key, const std::string& digest);

    /** Count one operation that passed (true) or failed (false). */
    bool record(bool ok, const std::string& what);

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }
    bool has_reference() const { return !reference_.empty(); }

    /** First few failure descriptions, for the log. */
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::map<std::string, std::string> reference_;
    long attempted_ = 0;
    long failed_ = 0;
    std::vector<std::string> failures_;
};

/** Command-line options shared by every workload. */
struct Options {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;   ///< Span file written by traced runs.
};

/** What a workload hands back to main(). */
struct Result {
    /** End-to-end metrics (untraced); absent ones are not exercised. */
    std::map<std::string, Metric> end_to_end;
    /** Per-layer metrics (traced run only). */
    std::map<std::string, Metric> per_layer;
    /** Digest of every output fingerprint, in operation order. */
    std::string digest;
    /** (reference key, digest) of each distinct operation, for
     *  re-recording the reference table (`--record`). */
    std::vector<std::pair<std::string, std::string>> op_digests;
    /** Free-form lines for the human-readable log. */
    std::vector<std::string> notes;
};

/** The default seed, the one the reference table was recorded for. */
inline constexpr std::uint64_t kDefaultSeed = 42;

/** Recorded reference digests for `workload` at the default seed. */
std::map<std::string, std::string> reference_for(const std::string& workload,
                                                 std::uint64_t seed);

/** Workload entry points (paper.cc, fleet.cc, fuzz.cc). */
Result run_paper(const Options& opt, bool macro_step, Gate& gate,
                 Tracer& tracer);
Result run_fleet(const Options& opt, Gate& gate, Tracer& tracer);
Result run_fuzz(const Options& opt, Gate& gate, Tracer& tracer);

/** Tiny gate self-test (paper.cc): one corrupt reference digest must
 *  yield exactly one failed operation. */
bool gate_self_test(std::string* detail);

/** Peak resident set of this process in MiB (VmHWM). */
double peak_rss_mib();

/**
 * Return freed heap to the system and restart the peak-RSS high-water
 * mark from the current resident set, so that the next peak_rss_mib()
 * is the peak of what ran in between.
 */
void restart_peak_rss();

/**
 * Pin this process, and every thread it starts from now on, to the CPU
 * it is running on, so a one-thread workload never waits on another
 * CPU (a library-owned worker pool then shares that CPU).
 */
void pin_to_current_cpu();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
