/**
 * @file
 * The fuzz workload: a fixed campaign of
 * generate_scenario(scenario_seed(seed, i)) -> check_scenario on one
 * thread.  It is the only workload that runs the differential
 * harness, faults, JSONL trace emission, clearing pools and non-TC2
 * shapes.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "fuzz/check.hh"
#include "fuzz/scenario.hh"

namespace perfbench {
namespace {

/**
 * Scenarios per campaign pass.  Scenario cost is heavy-tailed (a
 * clearing-pool or fleet scenario costs many clean ones), so the pass
 * is long enough that its mean cost varies little from seed to seed.
 */
constexpr long kCampaign = 120;

/** The genes whose share of scenarios and of check time is reported. */
const char* const kGenes[] = {"fleet", "snapshot", "faults", "trace",
                              "pool"};
constexpr int kNumGenes = 5;

std::array<bool, kNumGenes>
genes_of(const ppm::fuzz::Scenario& sc)
{
    return {sc.fleet_chips > 1, sc.snapshot_at > 0,
            sc.has_faults || sc.has_fleet_faults, sc.trace,
            sc.clearing_jobs > 1};
}

/** One checked scenario. */
struct Checked {
    std::string digest;        ///< Scenario text + violations.
    std::string violations;    ///< Joined one-liners (empty = clean).
    long violation_count = 0;
    double generate_s = 0.0;
    double check_s = 0.0;
    std::array<bool, kNumGenes> genes{};
};

Checked
check_one(std::uint64_t seed, long i, Tracer& tracer, long op)
{
    Checked out;
    const int span = tracer.begin("scenario", -1, op);
    std::int64_t t0 = now_ns();
    const ppm::fuzz::Scenario sc = ppm::fuzz::generate_scenario(
        ppm::fuzz::scenario_seed(seed, static_cast<std::uint64_t>(i)));
    std::int64_t t1 = now_ns();
    tracer.record("generate", t0, t1, span, op);
    out.generate_s = ns_to_s(t1 - t0);

    t0 = now_ns();
    const std::vector<ppm::fuzz::Violation> v = ppm::fuzz::check_scenario(sc);
    t1 = now_ns();
    tracer.record("check", t0, t1, span, op);
    tracer.end(span);
    out.check_s = ns_to_s(t1 - t0);

    std::string text = ppm::fuzz::serialize(sc);
    for (const auto& x : v) {
        out.violations += x.invariant + "/" + x.policy + ": " + x.detail + "; ";
        text += x.invariant + "/" + x.policy + "\n";
    }
    out.violation_count = static_cast<long>(v.size());
    out.digest = hex64(fnv1a(text));
    out.genes = genes_of(sc);
    return out;
}

} // namespace

Result
run_fuzz(const Options& opt, Gate& gate, Tracer& tracer)
{
    Result res;
    Tracer untraced(false);
    pin_to_current_cpu();

    // Warm-up pass, untimed: the campaign's first three scenarios.
    for (long i = 0; i < 3; ++i)
        check_one(opt.seed, i, untraced, -1);

    // Closed loop of whole campaign passes, at least two, nearest the
    // requested seconds; the scenario set never depends on where time
    // ran out.  Each scenario and its generation are timed as the fastest
    // of their passes: on a shared host, interference only ever slows
    // them down.
    std::vector<std::string> digests;
    std::vector<double> best(kCampaign), best_generate(kCampaign),
        rss_samples;
    double host_s = 0.0;
    long scenarios = 0;
    int passes = 0;
    const std::int64_t start = now_ns();
    for (;;) {
        const double elapsed = ns_to_s(now_ns() - start);
        if (passes >= 2 && elapsed + elapsed / passes / 2.0 >= opt.seconds)
            break;
        for (long i = 0; i < kCampaign; ++i) {
            restart_peak_rss();
            const Checked c = check_one(opt.seed, i, untraced, scenarios);
            rss_samples.push_back(peak_rss_mib());
            const auto k = static_cast<std::size_t>(i);
            const double t = c.generate_s + c.check_s;
            best[k] = passes == 0 ? t : std::min(best[k], t);
            best_generate[k] = passes == 0
                ? c.generate_s
                : std::min(best_generate[k], c.generate_s);
            host_s += t;
            ++scenarios;
            if (passes == 0)
                digests.push_back(c.digest);
            gate.record(c.violation_count == 0 && c.digest == digests[k],
                        "scenario " + std::to_string(i) + ": " +
                            (c.violations.empty() ? "digest changed"
                                                  : c.violations));
        }
        ++passes;
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    double best_s = 0.0;
    for (long i = 0; i < kCampaign; ++i) {
        h = fnv1a(digests[static_cast<std::size_t>(i)], h);
        best_s += best[static_cast<std::size_t>(i)];
    }
    res.digest = hex64(h);
    res.end_to_end["fuzz_scenarios_per_s"] = {
        static_cast<double>(kCampaign) / best_s, "scenarios/s", scenarios};
    res.end_to_end["setup_s"] = {median(best_generate), "s", scenarios};
    res.end_to_end["peak_rss_mb"] = {geomean(rss_samples), "MiB",
                                     static_cast<long>(rss_samples.size())};
    res.notes.push_back("passes: " + std::to_string(passes) + " x " +
                        std::to_string(kCampaign) + " scenarios");
    if (!opt.trace)
        return res;

    // Traced pass: the same campaign passes, spanned per scenario.
    std::vector<double> check_ms, gen_s;
    double check_s = 0.0, traced_s = 0.0;
    double gene_s[kNumGenes] = {};
    long gene_n[kNumGenes] = {};
    long violations = 0, traced_ops = 0;
    for (int p = 0; p < passes; ++p) {
        for (long i = 0; i < kCampaign; ++i) {
            const Checked c = check_one(opt.seed, i, tracer, traced_ops++);
            gate.record(c.digest == digests[static_cast<std::size_t>(i)],
                        "scenario " + std::to_string(i) +
                            ": traced digest differs");
            check_ms.push_back(c.check_s * 1e3);
            gen_s.push_back(c.generate_s);
            check_s += c.check_s;
            traced_s += c.generate_s + c.check_s;
            violations += c.violation_count;
            for (int g = 0; g < kNumGenes; ++g) {
                if (c.genes[static_cast<std::size_t>(g)]) {
                    gene_s[g] += c.check_s;
                    ++gene_n[g];
                }
            }
        }
    }

    auto& L = res.per_layer;
    const long n = traced_ops;
    double tail_q = 0.0;
    const double tail = tail_percentile(check_ms, &tail_q);
    L["fuzz.scenarios"] = {static_cast<double>(n), "count", n};
    L["fuzz.check_s"] = {check_s, "s", n};
    L["fuzz.check_ms_p50"] = {percentile(check_ms, 50), "ms", n};
    L["fuzz.check_ms_tail"] = {tail, "ms", n};
    L["fuzz.violations"] = {static_cast<double>(violations), "count", n};
    for (int g = 0; g < kNumGenes; ++g) {
        const std::string gene = kGenes[g];
        L["fuzz.check_s." + gene] = {gene_s[g], "s", gene_n[g]};
        L["fuzz.scenario_share." + gene] = {
            static_cast<double>(gene_n[g]) / static_cast<double>(n), "ratio",
            n};
        L["fuzz.check_share." + gene] = {gene_s[g] / check_s, "ratio", n};
    }
    L["setup.instantiate_s"] = {median(gen_s), "s", n};
    L["trace.overhead"] = {traced_s / host_s - 1.0, "ratio", n};
    char tail_note[64];
    std::snprintf(tail_note, sizeof tail_note, "fuzz.check_ms_tail is p%g",
                  tail_q);
    res.notes.push_back(tail_note);
    return res;
}

} // namespace perfbench
