#include "workload/trace.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"

namespace ppm::workload {

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

std::vector<TracePoint>
load_demand_trace(std::istream& in)
{
    std::vector<TracePoint> trace;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string t = trim(line);
        if (t.empty() || t.front() == '#')
            continue;
        // Skip a header row ("time_s,demand_pu" or similar).
        if (std::isalpha(static_cast<unsigned char>(t.front())))
            continue;
        const std::size_t comma = t.find(',');
        if (comma == std::string::npos)
            fatal("trace line %d: expected 'time_s,demand_pu'", lineno);
        const std::string time_field = trim(t.substr(0, comma));
        double time_s = 0.0;
        double demand = 0.0;
        if (!parse_double(time_field, &time_s) ||
            !parse_double(trim(t.substr(comma + 1)), &demand))
            fatal("trace line %d: expected 'time_s,demand_pu', got '%s'",
                  lineno, t.c_str());
        if (time_s < 0.0 || demand < 0.0)
            fatal("trace line %d: negative time or demand", lineno);
        TracePoint p;
        if (!truncate_time(time_s, kSecond, &p.time))
            fatal("trace line %d: time %s s is out of range", lineno,
                  time_field.c_str());
        p.demand = demand;
        if (!trace.empty() && p.time <= trace.back().time) {
            fatal("trace line %d: times must be strictly increasing",
                  lineno);
        }
        trace.push_back(p);
    }
    if (trace.empty())
        fatal("demand trace is empty");
    if (trace.front().time != 0)
        fatal("demand trace must start at time 0");
    return trace;
}

std::vector<TracePoint>
load_demand_trace_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open demand trace '%s'", path.c_str());
    return load_demand_trace(in);
}

std::vector<Phase>
phases_from_trace(const std::vector<TracePoint>& trace, double big_speedup,
                  double target_hr, SimTime tail)
{
    PPM_ASSERT(!trace.empty(), "trace must not be empty");
    PPM_ASSERT(big_speedup >= 1.0, "speedup must be >= 1");
    PPM_ASSERT(target_hr > 0.0, "target heart rate must be positive");
    PPM_ASSERT(tail > 0, "tail must be positive");

    std::vector<Phase> phases;
    phases.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const SimTime duration = i + 1 < trace.size()
            ? trace[i + 1].time - trace[i].time : tail;
        // Zero-demand segments still need positive work; use a floor
        // of 1 PU so the task merely idles at its target rate.
        const Pu demand = std::max(1.0, trace[i].demand);
        const Cycles w_little =
            demand * kCyclesPerPuSecond / target_hr;
        phases.push_back(
            Phase{duration, w_little, w_little / big_speedup});
    }
    return phases;
}

TaskSpec
make_trace_task_spec(const std::string& name, int priority,
                     const std::vector<TracePoint>& trace,
                     double big_speedup, double target_hr)
{
    TaskSpec spec;
    spec.name = name;
    spec.priority = priority;
    spec.min_hr = 0.95 * target_hr;
    spec.max_hr = 1.05 * target_hr;
    spec.phases = phases_from_trace(trace, big_speedup, target_hr);
    return spec;
}

} // namespace ppm::workload
