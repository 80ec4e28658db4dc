/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload paper-macro|paper-tick|fleet|fuzz
 *             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
 *             [--commit ID] [--source DIGEST] [--record]
 *
 * Runs one workload as a closed loop for about S seconds, gates every
 * output, and prints a human-readable log followed by one JSON line
 * holding every metric it measured (end to end when untraced, per
 * layer when traced) with its unit and sample count.  perfbench/run.py
 * builds this program, runs it and maps that line onto the metric
 * lists of BENCHMARK.json.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"

namespace perfbench {
namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper-macro|paper-tick|fleet|"
                 "fuzz [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--trace-out PATH] [--commit ID] "
                 "[--source DIGEST] [--record]\n",
                 why);
    std::exit(2);
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Build facts every result records. */
struct HostStamp {
    unsigned threads = std::thread::hardware_concurrency();
#ifdef __clang__
    std::string compiler = std::string("clang ") + __clang_version__;
#else
    std::string compiler = std::string("gcc ") + __VERSION__;
#endif
    std::string build_type = PERFBENCH_BUILD_TYPE;
    std::string flags = PERFBENCH_CXX_FLAGS;
#ifdef __OPTIMIZE__
    bool optimized = true;
#else
    bool optimized = false;
#endif
#ifdef NDEBUG
    bool assertions = false;
#else
    bool assertions = true;
#endif
    std::string commit;
    std::string source;

    std::string json() const
    {
        return "{\"threads\": " + std::to_string(threads) +
            ", \"compiler\": \"" + json_escape(compiler) +
            "\", \"build_type\": \"" + json_escape(build_type) +
            "\", \"flags\": \"" + json_escape(flags) +
            "\", \"optimized\": " + (optimized ? "true" : "false") +
            ", \"assertions\": " + (assertions ? "true" : "false") +
            ", \"commit\": \"" + json_escape(commit) +
            "\", \"source\": \"" + json_escape(source) + "\"}";
    }
};

std::string
metrics_json(const std::map<std::string, Metric>& m)
{
    std::string out = "{";
    for (const auto& [name, metric] : m) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit +
            "\", \"samples\": " + std::to_string(metric.samples) + "}";
    }
    return out + "}";
}

/** Write the span log (Chrome trace-event JSON, viewable in Perfetto). */
bool
write_spans(const std::string& path, const Tracer& tracer,
            const HostStamp& host, const Options& opt,
            const std::map<std::string, Metric>& per_layer)
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::int64_t t0 =
        tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
    os << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
       << ", \"host\": " << host.json()
       << ", \"per_layer\": " << metrics_json(per_layer)
       << ",\n\"traceEvents\": [";
    bool first = true;
    for (const Span& s : tracer.spans()) {
        os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << json_number(static_cast<double>(s.start_ns - t0) * 1e-3)
           << ", \"dur\": "
           << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"op\": " << s.op << "}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt;
    HostStamp host;
    bool record = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char* end = nullptr;
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("--seed expects a non-negative integer");
        } else if (arg == "--seconds") {
            const std::string v = value();
            char* end = nullptr;
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
                opt.seconds > 3600.0)
                usage("--seconds expects a number in (0, 3600]");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--trace-out") {
            opt.trace_out = value();
        } else if (arg == "--commit") {
            host.commit = value();
        } else if (arg == "--source") {
            host.source = value();
        } else if (arg == "--record") {
            record = true;
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (opt.workload != "paper-macro" && opt.workload != "paper-tick" &&
        opt.workload != "fleet" && opt.workload != "fuzz")
        usage("--workload must be paper-macro, paper-tick, fleet or fuzz");

    std::printf("host: %s\n", host.json().c_str());
    if (!host.optimized)
        std::printf("WARNING: built without optimisation; timings are "
                    "not comparable\n");
    if (host.assertions)
        std::printf("WARNING: built with assertions (NDEBUG unset); "
                    "timings are not comparable\n");

    std::string self_test;
    const bool self_test_ok = gate_self_test(&self_test);
    std::printf("gate self-test: %s (%s)\n", self_test.c_str(),
                self_test_ok ? "ok" : "FAILED");

    Gate gate(reference_for(opt.workload, opt.seed));
    Tracer tracer(opt.trace);
    Result r;
    if (opt.workload == "paper-macro")
        r = run_paper(opt, true, gate, tracer);
    else if (opt.workload == "paper-tick")
        r = run_paper(opt, false, gate, tracer);
    else if (opt.workload == "fleet")
        r = run_fleet(opt, gate, tracer);
    else
        r = run_fuzz(opt, gate, tracer);

    const std::map<std::string, Metric>& metrics =
        opt.trace ? r.per_layer : r.end_to_end;

    for (const std::string& note : r.notes)
        std::printf("%s\n", note.c_str());
    std::printf("digest: %s (%s)\n", r.digest.c_str(),
                gate.has_reference()
                    ? "checked against the recorded reference"
                    : "no recorded reference for this seed; compare "
                      "across commits");
    if (record) {
        for (const auto& [key, digest] : r.op_digests)
            std::printf("reference %s %s\n", key.c_str(), digest.c_str());
    }
    for (const std::string& f : gate.failures())
        std::printf("FAILED: %s\n", f.c_str());

    bool wrote = true;
    if (opt.trace && !opt.trace_out.empty()) {
        wrote = write_spans(opt.trace_out, tracer, host, opt, r.per_layer);
        std::printf("spans: %zu written to %s%s\n", tracer.spans().size(),
                    opt.trace_out.c_str(), wrote ? "" : " (FAILED)");
    }

    const bool correct = self_test_ok && wrote && gate.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"digest\": \"%s\", \"host\": %s, \"metrics\": %s}\n",
                correct ? "true" : "false", gate.attempted(), gate.failed(),
                r.digest.c_str(), host.json().c_str(),
                metrics_json(metrics).c_str());
    return 0;
}
