/**
 * @file
 * Summarize a trace produced by `ppm_run --trace-out` (narrow CSV or
 * JSONL) or `ppm_run --trace` (wide CSV): per-series count, min, mean
 * and max, plus the V-F settling time -- the last moment any
 * `cluster<N>_level` or `cluster<N>_mhz` series changed value.
 *
 * Usage:
 *   trace_stats FILE [--format csv|jsonl] [--csv] [--series REGEX]
 *
 * The format is inferred from the extension (.jsonl / .csv) unless
 * --format is given.  --series restricts the per-series table to
 * names matching the ECMAScript regular expression.  --csv prints the
 * table as CSV instead of aligned columns.  Every number in the file
 * must be finite (ppm::parse_double); a line holding one that is not
 * is skipped whole with a warning on stderr.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace {

using ppm::OnlineStats;

/** Accumulated view of the whole trace. */
struct TraceStats {
    std::map<std::string, OnlineStats> series;
    /** Last value seen per series (for change detection). */
    std::map<std::string, double> last;
    /** Last time a V-F series (cluster level / mhz) changed. */
    double vf_settled_at = 0.0;
    bool vf_changed = false;
    double end_time = 0.0;
    long records = 0;
};

bool
is_vf_series(const std::string& name)
{
    static const std::regex re("^cluster[0-9]+_(level|mhz)$");
    return std::regex_match(name, re);
}

void
add_sample(TraceStats& st, const std::string& name, double t, double v)
{
    st.series[name].add(v);
    st.end_time = std::max(st.end_time, t);
    ++st.records;
    auto it = st.last.find(name);
    if (it == st.last.end()) {
        st.last.emplace(name, v);
        return; // the initial value is not a change
    }
    if (it->second != v && is_vf_series(name)) {
        st.vf_settled_at = t;
        st.vf_changed = true;
    }
    it->second = v;
}

/** One flat JSON object, split into numeric and string fields. */
struct JsonRecord {
    std::vector<std::pair<std::string, double>> num;
    std::vector<std::pair<std::string, std::string>> str;
};

/**
 * Parse one flat JSON object (no nesting, as emitted by JsonlSink).
 * Returns false on malformed input.
 */
bool
parse_json_line(const std::string& line, JsonRecord& out)
{
    out.num.clear();
    out.str.clear();
    std::size_t i = 0;
    const std::size_t n = line.size();
    auto skip_ws = [&]() {
        while (i < n && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto parse_string = [&](std::string& s) -> bool {
        if (i >= n || line[i] != '"')
            return false;
        ++i;
        s.clear();
        while (i < n && line[i] != '"') {
            if (line[i] == '\\' && i + 1 < n) {
                ++i;
                switch (line[i]) {
                case 'n': s += '\n'; break;
                case 't': s += '\t'; break;
                case 'r': s += '\r'; break;
                default: s += line[i]; break;
                }
            } else {
                s += line[i];
            }
            ++i;
        }
        if (i >= n)
            return false;
        ++i; // closing quote
        return true;
    };
    skip_ws();
    if (i >= n || line[i] != '{')
        return false;
    ++i;
    skip_ws();
    if (i < n && line[i] == '}')
        return true; // empty object
    while (i < n) {
        skip_ws();
        std::string key;
        if (!parse_string(key))
            return false;
        skip_ws();
        if (i >= n || line[i] != ':')
            return false;
        ++i;
        skip_ws();
        if (i < n && line[i] == '"') {
            std::string value;
            if (!parse_string(value))
                return false;
            out.str.emplace_back(std::move(key), std::move(value));
        } else {
            const std::size_t end = std::min(
                line.find_first_of(",} \t\n\v\f\r", i), n);
            double v = 0.0;
            if (!ppm::parse_double(line.substr(i, end - i), &v))
                return false;
            i = end;
            out.num.emplace_back(std::move(key), v);
        }
        skip_ws();
        if (i < n && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < n && line[i] == '}')
            return true;
        return false;
    }
    return false;
}

void
warn_malformed(long lineno)
{
    std::fprintf(stderr, "warning: skipping malformed line %ld\n", lineno);
}

void
read_jsonl(std::istream& in, TraceStats& st)
{
    std::string line;
    long lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonRecord rec;
        if (!parse_json_line(line, rec)) {
            warn_malformed(lineno);
            continue;
        }
        double t = 0.0;
        std::string type;
        std::string series;
        for (const auto& [k, v] : rec.num) {
            if (k == "t_s")
                t = v;
        }
        for (const auto& [k, v] : rec.str) {
            if (k == "type")
                type = v;
            else if (k == "series")
                series = v;
        }
        if (type == "sample") {
            for (const auto& [k, v] : rec.num) {
                if (k == "value")
                    add_sample(st, series, t, v);
            }
        } else {
            // Event: every numeric field except the timestamp is a
            // series in its own right (matches TraceSink::event's
            // default rendering, so CSV and JSONL stats agree).
            for (const auto& [k, v] : rec.num) {
                if (k != "t_s")
                    add_sample(st, k, t, v);
            }
        }
    }
}

std::vector<std::string>
split_csv(const std::string& line)
{
    std::vector<std::string> out;
    std::string cell;
    std::stringstream ss(line);
    while (std::getline(ss, cell, ','))
        out.push_back(cell);
    if (!line.empty() && line.back() == ',')
        out.emplace_back();
    return out;
}

/**
 * The samples of one CSV data line: its time `t` and (series, value)
 * pairs.  False, and no sample, when a cell is not a finite number or
 * a narrow line does not have three cells.
 */
bool
parse_csv_line(const std::vector<std::string>& cells,
               const std::vector<std::string>& header, bool narrow,
               double& t,
               std::vector<std::pair<const std::string*, double>>& out)
{
    out.clear();
    if (!ppm::parse_double(cells[0], &t))
        return false;
    if (narrow) {
        double v = 0.0;
        if (cells.size() != 3 || !ppm::parse_double(cells[2], &v))
            return false;
        out.emplace_back(&cells[1], v);
        return true;
    }
    // Wide format from TraceRecorder::write_csv: one column per
    // series, cells may be empty when a series has no sample at that
    // time.
    for (std::size_t c = 1; c < cells.size() && c < header.size(); ++c) {
        if (cells[c].empty())
            continue;
        double v = 0.0;
        if (!ppm::parse_double(cells[c], &v))
            return false;
        out.emplace_back(&header[c], v);
    }
    return true;
}

void
read_csv(std::istream& in, TraceStats& st)
{
    std::string line;
    if (!std::getline(in, line))
        ppm::fatal("empty CSV trace");
    const std::vector<std::string> header = split_csv(line);
    if (header.empty() || header[0] != "time_s")
        ppm::fatal("not a trace CSV: first column must be time_s");
    const bool narrow = header.size() == 3 && header[1] == "series" &&
        header[2] == "value";
    std::vector<std::pair<const std::string*, double>> samples;
    long lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const std::vector<std::string> cells = split_csv(line);
        if (cells.empty())
            continue;
        double t = 0.0;
        if (!parse_csv_line(cells, header, narrow, t, samples)) {
            warn_malformed(lineno);
            continue;
        }
        for (const auto& [name, v] : samples)
            add_sample(st, *name, t, v);
    }
}

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s FILE [--format csv|jsonl] [--csv]\n"
                 "          [--series REGEX]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ppm;
    std::string path;
    std::string format;
    std::string series_filter;
    bool csv_out = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.erase(eq);
                has_inline = true;
            }
        }
        auto next = [&]() -> const char* {
            if (has_inline)
                return inline_value.c_str();
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--format") {
            format = next();
            if (format != "csv" && format != "jsonl")
                usage(argv[0]);
        } else if (arg == "--series") {
            series_filter = next();
        } else if (arg == "--csv") {
            csv_out = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
        } else if (path.empty()) {
            path = arg;
        } else {
            usage(argv[0]);
        }
    }
    if (path.empty())
        usage(argv[0]);
    if (format.empty()) {
        const bool csv_ext = path.size() >= 4 &&
            path.compare(path.size() - 4, 4, ".csv") == 0;
        format = csv_ext ? "csv" : "jsonl";
    }

    std::ifstream in(path);
    if (!in)
        fatal("cannot read trace file '%s'", path.c_str());

    TraceStats st;
    if (format == "csv")
        read_csv(in, st);
    else
        read_jsonl(in, st);

    std::regex filter;
    if (!series_filter.empty())
        filter = std::regex(series_filter);

    Table table({"series", "count", "min", "mean", "max"});
    for (const auto& [name, stats] : st.series) {
        if (!series_filter.empty() && !std::regex_search(name, filter))
            continue;
        table.add_row({name, std::to_string(stats.count()),
                       fmt_double(stats.min(), 4),
                       fmt_double(stats.mean(), 4),
                       fmt_double(stats.max(), 4)});
    }
    if (csv_out)
        table.print_csv(std::cout);
    else
        table.print(std::cout);

    std::printf("records: %ld\n", st.records);
    std::printf("trace_end_s: %s\n", fmt_double(st.end_time, 3).c_str());
    if (st.vf_changed) {
        std::printf("vf_settled_at_s: %s\n",
                    fmt_double(st.vf_settled_at, 3).c_str());
        std::printf("vf_settling_margin_s: %s\n",
                    fmt_double(st.end_time - st.vf_settled_at, 3)
                        .c_str());
    } else {
        std::printf("vf_settled_at_s: 0.000 (no V-F change observed)\n");
    }

    // Incremental-clearing skip totals (from the final counters
    // record; identical with incrementality on or off -- the dirty
    // bookkeeping runs in both modes).  Absent on baseline traces.
    auto counter_total = [&st](const char* name) -> double {
        const auto it = st.series.find(name);
        return it != st.series.end() ? it->second.max() : 0.0;
    };
    const double skipped_tasks = counter_total("market.tasks_skipped");
    const double skipped_cores = counter_total("market.cores_skipped");
    const double early_exits = counter_total("market.rounds_early_exit");
    if (skipped_tasks > 0 || skipped_cores > 0 || early_exits > 0) {
        std::printf("market_tasks_skipped: %s\n",
                    fmt_double(skipped_tasks, 0).c_str());
        std::printf("market_cores_skipped: %s\n",
                    fmt_double(skipped_cores, 0).c_str());
        std::printf("market_rounds_early_exit: %s\n",
                    fmt_double(early_exits, 0).c_str());
    }

    // Fleet fault-tolerance totals (Fleet::bus() counters; absent on
    // single-chip and healthy-fleet traces).  The conservation line
    // restates the engine invariant for eyeballing dumps: every
    // evacuation either landed or was still queued at the end.
    const double failures = counter_total("fleet.chip_failures");
    const double recoveries = counter_total("fleet.chip_recoveries");
    const double evacuations = counter_total("fleet.evacuations");
    if (failures > 0 || recoveries > 0 || evacuations > 0) {
        std::printf("fleet_chip_failures: %s\n",
                    fmt_double(failures, 0).c_str());
        std::printf("fleet_chip_recoveries: %s\n",
                    fmt_double(recoveries, 0).c_str());
        std::printf("fleet_evacuations: %s\n",
                    fmt_double(evacuations, 0).c_str());
        std::printf("fleet_evac_landed: %s\n",
                    fmt_double(counter_total("fleet.evac_landed"), 0)
                        .c_str());
        std::printf("fleet_evac_pending: %s\n",
                    fmt_double(counter_total("fleet.evac_pending"), 0)
                        .c_str());
        std::printf("fleet_rejections: %s\n",
                    fmt_double(counter_total("fleet.rejections"), 0)
                        .c_str());
    }

    // Snapshot accounting (ppm_run --snapshot-every riders).
    const double snap_saves = counter_total("snapshot.saves");
    if (snap_saves > 0) {
        std::printf("snapshot_saves: %s\n",
                    fmt_double(snap_saves, 0).c_str());
        std::printf("snapshot_bytes: %s\n",
                    fmt_double(counter_total("snapshot.bytes"), 0)
                        .c_str());
    }
    return 0;
}
