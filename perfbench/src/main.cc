/**
 * @file
 * perfbench: replays one workload through the default unsharded
 * QuasarManager, measured from outside through the forwarding
 * TimedManager, for a fixed host-time budget.
 *
 *   perfbench --workload <churn-10k|trace-google|flash-crowd>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--data-dir perfbench/data] [--spans-out <file>]
 *
 * A run cycles over the workload's streams (WorkloadSpec::streams),
 * setting each up and replaying it again and again until the budget is
 * spent and every stream ran at least twice. A stream's replays
 * do the same work, call by call, so its simulated results must repeat
 * exactly; its host figures are taken step by step (each manager call
 * and each stretch of driver work between calls), as each step's
 * median over the replays, and the run reports their mean over the
 * middle half of the streams. Host times are scaled by the host probe
 * read before every replay. Simulated results are pooled over the
 * streams.
 *
 * --trace 0 reports the end-to-end metrics.
 * --trace 1 replays stream 0 only, alternating untraced and traced
 * replays, and reports the per-layer metrics of the median traced one,
 * its exclusive layer table, and the tracing overhead; --spans-out
 * writes its spans.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "host.hh"
#include "metrics.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    bool seed_given = false;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir = "perfbench/data";
    std::string spans_out;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed") {
            a.seed = std::strtoull(val, nullptr, 10);
            a.seed_given = true;
        } else if (key == "--seconds")
            a.seconds = std::atof(val);
        else if (key == "--trace")
            a.trace = std::strcmp(val, "0") != 0;
        else if (key == "--data-dir")
            a.data_dir = val;
        else if (key == "--spans-out")
            a.spans_out = val;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seed_given &&
           a.seconds > 0.0;
}

/** Seconds since t0 on the steady clock. */
double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** One reported metric: value, unit, and a note for the log. */
struct Metric
{
    double value;
    std::string unit;
    std::string note;
};
using MetricMap = std::vector<std::pair<std::string, Metric>>;

/** Untraced replays of each stream before a run may end. */
constexpr size_t kMinReplays = 2;

double
ms(double s)
{
    return s * 1e3;
}

/** The simulated results every repetition must reproduce. */
bool
sameSimulation(const RepResult &a, const RepResult &b)
{
    return a.placement_hash == b.placement_hash &&
           a.decision_hash == b.decision_hash &&
           a.outcomes.completed == b.outcomes.completed &&
           a.outcomes.departed == b.outcomes.departed &&
           a.outcomes.shed == b.outcomes.shed &&
           a.outcomes.never_placed == b.outcomes.never_placed &&
           a.outcomes.waits_s == b.outcomes.waits_s &&
           a.qos_violation_rate == b.qos_violation_rate &&
           a.cpu_util_mean == b.cpu_util_mean &&
           a.stats.scheduled == b.stats.scheduled &&
           a.stats.schedule_time.count == b.stats.schedule_time.count;
}

/** Host figures of one replay of one stream. */
struct Sample
{
    size_t stream = 0;
    bool traced = false;
    double setup_s = 0.0;
    double cluster_s = 0.0;
    double seed_offline_s = 0.0;
    double stream_s = 0.0;
    double wall_s = 0.0;
    size_t arrivals = 0;
    double decision_p50_ms = 0.0;
    double decision_p99_ms = 0.0;
    double peak_rss_mb = 0.0;
};

Sample
sampleOf(size_t stream, bool traced, const RepResult &r)
{
    Sample s;
    s.stream = stream;
    s.traced = traced;
    s.setup_s = r.setupSeconds();
    s.cluster_s = r.setup_cluster_s;
    s.seed_offline_s = r.setup_seed_offline_s;
    s.stream_s = r.setup_stream_s;
    s.wall_s = r.wall_s;
    s.arrivals = r.outcomes.arrivals;
    s.decision_p50_ms = ms(percentile(r.submit_s, 50.0));
    s.decision_p99_ms = ms(percentile(r.submit_s, 99.0));
    return s;
}

/** Median of one field over the samples that pass `keep`. */
template <typename F, typename K>
double
medianOf(const std::vector<Sample> &samples, F field, K keep)
{
    std::vector<double> v;
    for (const Sample &s : samples)
        if (keep(s))
            v.push_back(field(s));
    return median(v);
}

template <typename F>
double
medianOf(const std::vector<Sample> &samples, F field)
{
    return medianOf(samples, field, [](const Sample &) { return true; });
}

/** The simulated results of a run, pooled over its streams. */
struct Simulated
{
    Outcomes outcomes;
    double qos_violation_rate = 0.0;
    double cpu_util_mean = 0.0;
};

Simulated
simulatedOf(const std::vector<RepResult> &streams)
{
    Simulated s;
    for (const RepResult &r : streams) {
        s.outcomes.add(r.outcomes);
        s.qos_violation_rate += r.qos_violation_rate;
        s.cpu_util_mean += r.cpu_util_mean;
    }
    s.qos_violation_rate /= double(streams.size());
    s.cpu_util_mean /= double(streams.size());
    return s;
}

/**
 * The untraced replays of one stream, step by step. Every replay of a
 * stream makes the same calls in the same order, so its k-th step (a
 * manager call or the driver work before it) is the same work in each
 * replay.
 */
struct StreamReplays
{
    std::vector<std::vector<double>> step_s;
    std::vector<std::vector<double>> submit_s;
};

/**
 * Host figures of one stream, from its replays step by step: each
 * step's median over the replays. A slow spell of the host shorter
 * than a replay stretches only the steps it overlaps in that replay,
 * and each step's median over the replays drops it.
 */
struct StreamTimes
{
    double run_s = 0.0; ///< sum of the step medians.
    double sim_hours = 0.0;
    size_t arrivals = 0;
    /** Each onSubmit call's median over the replays, seconds. */
    std::vector<double> decision_s;
    size_t replays = 0;
};

std::vector<StreamTimes>
streamTimes(const std::vector<StreamReplays> &replays,
            const std::vector<RepResult> &first)
{
    std::vector<StreamTimes> out;
    for (size_t i = 0; i < replays.size() && i < first.size(); ++i) {
        if (replays[i].step_s.empty())
            continue; // a run cut short by a failed check.
        StreamTimes &t = out.emplace_back();
        for (double s : indexwiseMedian(replays[i].step_s))
            t.run_s += s;
        t.decision_s = indexwiseMedian(replays[i].submit_s);
        t.sim_hours = first[i].horizon_s / 3600.0;
        t.arrivals = first[i].outcomes.arrivals;
        t.replays = replays[i].step_s.size();
    }
    return out;
}

/**
 * The end-to-end metrics. Host times are multiplied by `scale`
 * (kProbeReferenceS over the run's median probe total); their notes
 * give the unscaled value.
 */
MetricMap
endToEnd(const Simulated &sim, const std::vector<Sample> &samples,
         const std::vector<StreamReplays> &replays,
         const std::vector<RepResult> &first, double scale)
{
    const Outcomes &o = sim.outcomes;
    std::vector<StreamTimes> per = streamTimes(replays, first);
    for (size_t i = 0; i < per.size(); ++i)
        std::printf("stream %zu: %zu replays, run %.4f s (unscaled, "
                    "step medians), %.4f ms per arrival, decision p50 "
                    "%.4f p99 %.3f ms\n",
                    i, per[i].replays, per[i].run_s,
                    ms(per[i].run_s) / double(per[i].arrivals),
                    ms(percentile(per[i].decision_s, 50.0)),
                    ms(percentile(per[i].decision_s, 99.0)));
    auto overStreams = [&per](auto field) {
        std::vector<double> v;
        for (const StreamTimes &t : per)
            v.push_back(field(t));
        return trimmedMean(v);
    };
    // Decision times are pooled: every onSubmit call of the run's
    // streams, each at its median over the stream's replays.
    std::vector<double> decisions;
    size_t min_replays = per.empty() ? 0 : per[0].replays;
    for (const StreamTimes &t : per) {
        min_replays = std::min(min_replays, t.replays);
        decisions.insert(decisions.end(), t.decision_s.begin(),
                         t.decision_s.end());
    }
    const std::string counts = "; " + std::to_string(per.size()) +
                              " streams, >= " +
                              std::to_string(min_replays) +
                              " replays each";
    const std::string run_note = "mean over the middle half of the "
                                 "streams of the sum of the run's step "
                                 "medians over replays";
    const std::string dec_note = "percentile over the " +
                                 std::to_string(decisions.size()) +
                                 " onSubmit calls of the streams, each "
                                 "call's median over replays" +
                                 counts;
    auto host = [scale](double v, const std::string &unit,
                        const std::string &note) {
        char unscaled[64];
        std::snprintf(unscaled, sizeof(unscaled), "; unscaled %.6g %s",
                      v, unit.c_str());
        return Metric{v * scale, unit, note + unscaled};
    };
    return {
        {"setup_s",
         host(medianOf(samples, [](auto &s) { return s.setup_s; }), "s",
              "median of " + std::to_string(samples.size()) +
                  " set-ups" + counts)},
        {"host_s_per_sim_hour",
         host(overStreams([](auto &t) { return t.run_s / t.sim_hours; }),
              "s", run_note + ", per simulated hour" + counts)},
        {"host_ms_per_arrival",
         host(overStreams([](auto &t) {
                  return ms(t.run_s) / double(t.arrivals);
              }),
              "ms", run_note + ", per arrival" + counts)},
        {"decision_ms_p50",
         host(ms(percentile(decisions, 50.0)), "ms", dec_note)},
        {"decision_ms_p99",
         host(ms(percentile(decisions, 99.0)), "ms",
              dec_note + ", " +
                  std::to_string(samplesBeyond(decisions.size(), 99.0)) +
                  " beyond p99")},
        {"qos_violation_rate",
         {sim.qos_violation_rate, "ratio",
          "mean in-QoS shortfall of the latency services"}},
        {"cpu_util_mean",
         {sim.cpu_util_mean, "ratio", "mean aggregate CPU used"}},
        {"failed_frac",
         {failedFraction(o), "ratio",
          std::to_string(o.shed) + " shed + " +
              std::to_string(o.never_placed) + " never placed of " +
              std::to_string(o.arrivals) + " arrivals"}},
        {"peak_rss_mb",
         {medianOf(samples, [](auto &s) { return s.peak_rss_mb; }), "MiB",
          "median over replays of the process's peak resident set "
          "during set-up and run"}},
    };
}

MetricMap
perLayer(const RepResult &r, const Exclusive &ex, double overhead,
         const std::vector<Sample> &samples)
{
    const quasar::core::QuasarStats &st = r.stats;
    auto calls = [&](Call c) { return double(r.calls[size_t(c)].calls); };
    auto busy = [&](Call c) { return r.calls[size_t(c)].busy_s; };
    auto self = [&](Call c) { return ex.call_self[size_t(c)]; };
    double sched_calls = double(st.schedule_time.count);
    const std::vector<double> &waits = r.outcomes.waits_s;
    const std::string wait_note =
        std::to_string(waits.size()) + " placed arrivals (" +
        std::to_string(r.outcomes.early_placements) +
        " stamped before their arrival, read as 0)";
    return {
        {"driver.self_s", {ex.driver_self, "s", ""}},
        {"driver.ticks", {double(r.ticks), "count", ""}},
        {"core.on_submit.calls", {calls(Call::Submit), "count", ""}},
        {"core.on_submit.busy_s", {busy(Call::Submit), "s", ""}},
        {"core.on_submit.self_s", {self(Call::Submit), "s", ""}},
        {"core.on_tick.calls", {calls(Call::Tick), "count", ""}},
        {"core.on_tick.busy_s", {busy(Call::Tick), "s", ""}},
        {"core.on_tick.p99_ms",
         {ms(percentile(r.tick_s, 99.0)), "ms",
          std::to_string(r.tick_s.size()) + " ticks, " +
              std::to_string(samplesBeyond(r.tick_s.size(), 99.0)) +
              " beyond p99"}},
        {"core.on_tick.self_s", {self(Call::Tick), "s", ""}},
        {"core.on_completion.calls",
         {calls(Call::Completion), "count", ""}},
        {"core.on_completion.busy_s", {busy(Call::Completion), "s", ""}},
        {"core.on_completion.self_s", {self(Call::Completion), "s", ""}},
        {"core.on_fault.calls", {calls(Call::Fault), "count", ""}},
        {"profiling.calls", {double(st.profile_time.count), "count", ""}},
        {"profiling.busy_s", {st.profile_time.total_s, "s", ""}},
        {"core.classify.calls",
         {double(st.classify_time.count), "count", ""}},
        {"core.classify.busy_s", {st.classify_time.total_s, "s", ""}},
        {"core.classify.online_rows", {double(r.online_rows), "count", ""}},
        {"core.schedule.calls", {sched_calls, "count", ""}},
        {"core.schedule.busy_s", {st.schedule_time.total_s, "s", ""}},
        {"core.schedule.self_s", {ex.schedule_self, "s", ""}},
        {"core.schedule.rank_busy_s",
         {r.sched_timing.rank.total_s, "s", ""}},
        {"core.schedule.place_busy_s",
         {r.sched_timing.place.total_s, "s", ""}},
        {"core.schedule.success_ratio",
         {sched_calls > 0 ? double(st.scheduled) / sched_calls : 0.0,
          "ratio", "QuasarStats::scheduled / schedule calls"}},
        {"core.admission.depth_mean", {r.depth_mean, "count", ""}},
        {"core.admission.depth_max", {double(r.depth_max), "count", ""}},
        {"core.admission.queued", {double(st.queued), "count", ""}},
        {"core.admission.wait_s_p50",
         {percentile(waits, 50.0), "s", wait_note}},
        {"core.admission.wait_s_p90",
         {percentile(waits, 90.0), "s", wait_note}},
        {"core.adapt.calls", {double(st.adapt_time.count), "count", ""}},
        {"core.adapt.busy_s", {st.adapt_time.total_s, "s", ""}},
        {"core.adapt.rescheduled", {double(st.rescheduled), "count", ""}},
        {"core.adapt.scale_up_adjustments",
         {double(st.scale_up_adjustments), "count", ""}},
        {"core.adapt.scale_out_adjustments",
         {double(st.scale_out_adjustments), "count", ""}},
        {"core.adapt.shrinks", {double(st.shrinks), "count", ""}},
        {"core.overload.deferred",
         {double(st.overload_deferred), "count", ""}},
        {"core.overload.shed", {double(st.shed), "count", ""}},
        {"core.overload.brownouts", {double(st.brownouts), "count", ""}},
        {"core.overload.transitions",
         {double(st.overload_transitions), "count", ""}},
        {"core.overload.autoscale_updates",
         {double(st.autoscale_updates), "count", ""}},
        {"setup.cluster_s",
         {medianOf(samples, [](auto &s) { return s.cluster_s; }), "s", ""}},
        {"setup.seed_offline_s",
         {medianOf(samples, [](auto &s) { return s.seed_offline_s; }), "s",
          ""}},
        {"setup.stream_s",
         {medianOf(samples, [](auto &s) { return s.stream_s; }), "s", ""}},
        {"trace.wall_s", {r.wall_s, "s", "the traced replay's wall-clock"}},
        {"trace.overhead_frac",
         {overhead, "ratio",
          "median traced / median untraced wall-clock - 1"}},
    };
}

void
printExclusive(const Exclusive &ex, const RepResult &r)
{
    const double wall = r.wall_s;
    auto row = [wall](const std::string &name, double v) {
        std::printf("  %-26s %10.4f s  %5.1f%%\n", name.c_str(), v,
                    wall > 0.0 ? 100.0 * v / wall : 0.0);
    };
    std::printf("exclusive layer table of the traced replay "
                "(parts sum to its wall-clock):\n");
    row("driver.self", ex.driver_self);
    for (size_t c = 0; c < kCalls; ++c)
        row(std::string(callName(Call(c))) + ".self", ex.call_self[c]);
    row("core.classify", ex.classify);
    row("core.schedule.self", ex.schedule_self);
    row("  core.schedule.rank", ex.rank);
    row("  core.schedule.place", ex.place);
    std::printf("  %-26s %10.4f s  (wall-clock %.4f s)\n", "sum",
                ex.sum(), wall);
    std::printf("inclusive manager calls:\n");
    for (size_t c = 0; c < kCalls; ++c)
        row(std::string(callName(Call(c))), r.calls[c].busy_s);
}

bool
writeSpans(const std::string &path, const std::string &header,
           const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d, "
                     "\"workload\": %llu, \"classify_s\": %.9f, "
                     "\"schedule_s\": %.9f, \"rank_s\": %.9f, "
                     "\"place_s\": %.9f}\n",
                     callName(s.call), s.start_s, s.end_s, s.parent,
                     (unsigned long long)s.workload, s.classify_s,
                     s.schedule_s, s.rank_s, s.place_s);
    return std::fclose(f) == 0;
}

void
printResult(bool correct, const Outcomes &o, const MetricMap &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(o.arrivals);
    json += ", \"failed\": " + std::to_string(o.shed + o.never_placed);
    json += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, m] = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--data-dir <dir>] "
                     "[--spans-out <file>]\n");
        return 2;
    }
    std::string refuse = instrumentedBuildReason();
    if (!refuse.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                     refuse.c_str());
        return 3;
    }
    WorkloadSpec spec;
    try {
        spec = workloadSpec(args.workload, args.seed, args.data_dir);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    // The traced run replays stream 0 only, alternating untraced and
    // traced replays so both see the same host conditions.
    const size_t streams = args.trace ? 1 : spec.streams;

    const std::string host = fingerprintJson(hostFingerprint());
    std::printf("host %s\n", host.c_str());
    std::printf("workload %s seed %llu: %zu stream(s) of %d servers, "
                "%.0f s simulated each, %s\n",
                spec.name.c_str(), (unsigned long long)spec.seed, streams,
                spec.servers, spec.horizon_s,
                args.trace ? "traced" : "untraced");

    // Replays, cycling over the streams, until the budget is spent and
    // every stream has been replayed often enough: kMinReplays times
    // untraced, or once each way traced.
    std::vector<std::string> errors;
    std::vector<RepResult> first; // first replay of each stream.
    std::vector<RepResult> traced;
    std::vector<Sample> samples;
    std::vector<StreamReplays> replays(streams);
    std::vector<double> probe_compute_s, probe_cache_s;
    auto replayed = [&] {
        if (args.trace)
            return !first.empty() && !traced.empty();
        for (const StreamReplays &sr : replays)
            if (sr.step_s.size() < kMinReplays)
                return false;
        return true;
    };
    auto start = std::chrono::steady_clock::now();
    for (size_t j = 0;; ++j) {
        const ProbeReading probe = probeHost();
        probe_compute_s.push_back(probe.compute_s);
        probe_cache_s.push_back(probe.cache_s);
        resetPeakRss();
        const size_t stream = j % streams;
        const bool is_traced = args.trace && j % 2 == 1;
        RepResult r = runRep(spec, stream,
                             is_traced ? Wiring::Traced : Wiring::Untraced);
        const std::string at = "replay " + std::to_string(j) + " (stream " +
                               std::to_string(stream) + "): ";
        for (const std::string &e : r.errors)
            errors.push_back(at + e);
        if (stream < first.size() && !sameSimulation(first[stream], r))
            errors.push_back(at + "diverged from the stream's first "
                                  "replay: the replay is not "
                                  "deterministic");
        samples.push_back(sampleOf(stream, is_traced, r));
        samples.back().peak_rss_mb = peakRssMb();
        const Sample &smp = samples.back();
        std::printf("  replay %zu stream %zu %-8s set-up %.4f s, run "
                    "%.4f s, %zu arrivals, decision p50 %.4f p99 %.3f "
                    "ms\n",
                    j, stream, is_traced ? "traced" : "untraced",
                    smp.setup_s, smp.wall_s, smp.arrivals,
                    smp.decision_p50_ms, smp.decision_p99_ms);
        if (!args.trace) {
            StreamReplays &sr = replays[stream];
            if (!sr.step_s.empty() &&
                (sr.step_s[0].size() != r.step_s.size() ||
                 sr.submit_s[0].size() != r.submit_s.size())) {
                errors.push_back(at + "made other calls than the stream's "
                                      "first replay");
            } else {
                sr.step_s.push_back(std::move(r.step_s));
                sr.submit_s.push_back(std::move(r.submit_s));
            }
        }
        r.step_s = {};
        r.submit_s = {};
        r.tick_s = is_traced ? r.tick_s : std::vector<double>{};
        if (is_traced)
            traced.push_back(std::move(r));
        else if (stream == first.size())
            first.push_back(std::move(r));
        bool done = since(start) >= args.seconds && replayed();
        if (done || !errors.empty())
            break;
    }

    const Simulated sim = simulatedOf(first);
    for (size_t i = 0; i < first.size(); ++i) {
        std::printf("stream %zu seed %llu: placement_hash %016llx", i,
                    (unsigned long long)streamSeed(spec.seed, i),
                    (unsigned long long)first[i].placement_hash);
        if (spec.name == "flash-crowd")
            std::printf("  decision_hash %016llx",
                        (unsigned long long)first[i].decision_hash);
        std::printf("\n");
    }

    // The host probe, read before every replay: its median over the
    // run says how fast the shared host was while the run measured.
    const double probe_s = median(probe_compute_s) + median(probe_cache_s);
    const double scale = kProbeReferenceS / probe_s;
    std::printf("host probe: median compute %.6f s + cache %.6f s = "
                "%.6f s over %zu readings; host times scaled by "
                "%.6f / %.6f = %.4f\n",
                median(probe_compute_s), median(probe_cache_s), probe_s,
                probe_compute_s.size(), kProbeReferenceS, probe_s, scale);

    MetricMap metrics;
    if (!args.trace) {
        metrics = endToEnd(sim, samples, replays, first, scale);
    } else {
        // Per-layer figures come from the traced replay with the
        // median wall-clock.
        std::sort(traced.begin(), traced.end(),
                  [](const RepResult &a, const RepResult &b) {
                      return a.wall_s < b.wall_s;
                  });
        const RepResult &r = traced[(traced.size() - 1) / 2];
        Exclusive ex = exclusiveSplit(r.wall_s, r.spans);
        printExclusive(ex, r);
        if (ex.minPart() < 0.0)
            errors.push_back("the exclusive layer table has a negative "
                             "entry");
        if (std::fabs(ex.sum() - r.wall_s) > 1e-9 * r.wall_s)
            errors.push_back("the exclusive layer table does not sum to "
                             "the traced replay's wall-clock");
        auto wall = [](auto &s) { return s.wall_s; };
        double overhead =
            medianOf(samples, wall, [](auto &s) { return s.traced; }) /
                medianOf(samples, wall, [](auto &s) { return !s.traced; }) -
            1.0;
        std::printf("tracing overhead %.2f%% (median of %zu traced vs "
                    "%zu untraced replays)\n",
                    100.0 * overhead, traced.size(),
                    samples.size() - traced.size());
        metrics = perLayer(r, ex, overhead, samples);
        if (!args.spans_out.empty() &&
            !writeSpans(args.spans_out,
                        "{\"workload\": \"" + spec.name +
                            "\", \"seed\": " + std::to_string(spec.seed) +
                            ", \"wall_s\": " + std::to_string(r.wall_s) +
                            ", \"host\": " + host + "}",
                        r.spans))
            errors.push_back("cannot write spans to " + args.spans_out);
    }

    for (const auto &[name, m] : metrics)
        std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    for (const std::string &e : errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    printResult(errors.empty(), sim.outcomes, metrics);
    return 0;
}
