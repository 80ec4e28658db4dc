#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

std::uint64_t
fnv1a(const std::string& s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double>& v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double
tail_percentile(const std::vector<double>& v, double* q)
{
    double chosen = 50.0;
    for (double p : {90.0, 99.0, 99.9}) {
        const double beyond =
            static_cast<double>(v.size()) * (100.0 - p) / 100.0;
        if (beyond >= 10.0)
            chosen = p;
    }
    if (q != nullptr)
        *q = chosen;
    return percentile(v, chosen);
}

void
CallStats::add(std::int64_t ns)
{
    ++count;
    total_ns += ns;
    int b = 0;
    for (auto u = static_cast<std::uint64_t>(ns > 1 ? ns : 1); u > 1;
         u >>= 1)
        ++b;
    ++hist[static_cast<std::size_t>(b)];
}

void
CallStats::merge(const CallStats& o)
{
    count += o.count;
    total_ns += o.total_ns;
    for (std::size_t b = 0; b < hist.size(); ++b)
        hist[b] += o.hist[b];
}

double
CallStats::percentile_ns(double q) const
{
    if (count == 0)
        return 0.0;
    const double rank = q / 100.0 * static_cast<double>(count);
    double seen = 0.0;
    for (std::size_t b = 0; b < hist.size(); ++b) {
        const auto n = static_cast<double>(hist[b]);
        if (n > 0.0 && seen + n >= rank) {
            const double lo = std::ldexp(1.0, static_cast<int>(b));
            return lo + lo * (rank - seen) / n;
        }
        seen += n;
    }
    return std::ldexp(1.0, 63);
}

int
Tracer::begin(const char* name, int parent, long op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.op = op;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int
Tracer::record(const char* name, std::int64_t start_ns,
               std::int64_t end_ns, int parent, long op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.op = op;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

bool
Gate::record(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 8)
            failures_.push_back(what);
    }
    return ok;
}

bool
Gate::check_reference(const std::string& key, const std::string& digest)
{
    if (reference_.empty())
        return record(true, key);
    const auto it = reference_.find(key);
    if (it == reference_.end())
        return record(false, key + ": no recorded digest");
    return record(it->second == digest, key + ": digest " + digest +
                                            " != recorded " + it->second);
}

double
peak_rss_mib()
{
    // VmHWM is this image's own high-water mark; getrusage's ru_maxrss
    // survives execve and would report the launching process's peak.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void
pin_to_current_cpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

void
restart_peak_rss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

} // namespace perfbench
