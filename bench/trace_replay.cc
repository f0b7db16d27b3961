/**
 * @file
 * Trace-replay bench: the two checked-in cluster-trace fixtures
 * (Google task-events style, Azure vmtable style) ingested, mapped,
 * and replayed through the full Quasar manager, comparing the
 * scheduler's production dirty-set decision path against the legacy
 * full_rescan referee under the identical mapped stream.
 *
 * Gates (exit non-zero on violation):
 *   1. Parser diagnostics: each fixture carries a known number of
 *      deliberately malformed rows; the parsers must reject exactly
 *      those, with per-line diagnostics, and nothing else.
 *   2. Mode divergence: dirty / full_rescan must produce bit-identical
 *      placements (FNV-1a fold of the full allocation state every
 *      tick).
 *   3. Re-replay stability: replaying the same mapped trace twice in
 *      the same mode must produce the identical placement hash.
 *
 * Reports decisions/s, admission depth, QoS-violation rate, the
 * placement hash, and the wall-clock breakdown per (fixture, mode),
 * to BENCH_trace_replay.json. The full run adds a synthesizer leg:
 * a ChurnConfig fitted to the mapped Google fixture driving a
 * 2000-server stream — the "small fixture, big cluster" path.
 *
 * `--smoke` is the CI variant: both fixtures at 200 servers over a
 * short horizon, both modes plus the re-replay gate.
 *
 * To replay a real downloaded trace instead of the fixtures, point
 * `--traces=<dir>` at a directory whose files carry the fixture
 * names (google_task_events.csv / azure_vmtable.csv, optionally with
 * a .gz suffix when built with zlib) and pass `--no-diag-gate` —
 * gate 1's exact counts are a property of the bundled fixtures, not
 * of real data. Gates 2 and 3 (mode equivalence, re-replay
 * stability) still apply.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "churn/churn.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "trace/azure.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "trace/synth.hh"

using namespace quasar;

namespace
{

/** The paper's testbeds, scaled up by replicating the EC2 mix. */
sim::Cluster
clusterOfSize(int servers)
{
    if (servers == 40)
        return sim::Cluster::localCluster();
    if (servers == 200)
        return sim::Cluster::ec2Cluster();
    auto catalog = sim::ec2Platforms();
    std::vector<int> counts = {6, 6, 8, 14, 6, 8, 16, 30,
                               8, 30, 8, 16, 30, 14};
    for (int &c : counts)
        c *= servers / 200;
    return sim::Cluster(catalog, counts);
}

const char *
modeName(bool full)
{
    return full ? "full_rescan" : "dirty";
}

struct ModeMetrics
{
    double decisions_per_s = 0.0;
    uint64_t schedule_calls = 0;
    double mean_admission_depth = 0.0;
    size_t max_admission_depth = 0;
    double qos_violation_rate = 0.0;
    uint64_t placement_hash = 0;
    size_t arrivals = 0;
    /** Split QoS-outcome accounting (driver::outcomeOf): departed =
     *  churn departures/cancellations, shed = overload-control drops,
     *  degraded = completed-or-departed after a brownout episode. */
    size_t completed = 0;
    size_t departed = 0;
    size_t shed = 0;
    size_t degraded = 0;
    /** Wall-clock means, milliseconds. */
    double classify_ms = 0.0;
    double profile_ms = 0.0;
    double schedule_ms = 0.0;
    double adapt_ms = 0.0;
    double rank_ms = 0.0;
    double place_ms = 0.0;
    double tick_ms = 0.0;
};

/** Fold the cluster's full allocation state into a running FNV-1a. */
void
hashClusterState(const sim::Cluster &cluster, uint64_t &h)
{
    auto fold = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ULL;
    };
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        fold(uint64_t(s) << 32 | uint64_t(srv.available()));
        for (const sim::TaskShare &t : srv.tasks()) {
            // Socket folded into the high bits of the workload
            // word: ids stay far below 2^48, and socket 0 leaves the
            // pre-topology hash untouched (flat bit-identity).
            fold(uint64_t(t.workload) | uint64_t(t.socket) << 48);
            fold(uint64_t(t.cores));
        }
    }
}

/** One replay (or synth) run in one scheduler mode. */
ModeMetrics
runStream(int servers, double horizon_s, bool full,
          const trace::MappedTrace *mapped,
          const churn::ChurnConfig *synth_cfg)
{
    sim::Cluster cluster = clusterOfSize(servers);
    workload::WorkloadRegistry registry;

    core::QuasarConfig qcfg;
    qcfg.scheduler.full_rescan = full;
    qcfg.proactive_interval_s = horizon_s / 3.0;
    core::QuasarManager mgr(cluster, registry, qcfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 15.0, .record_every = 2});

    // Exactly one stream source: a mapped trace or a fitted config.
    trace::TraceReplayer replayer(mapped ? *mapped
                                         : trace::MappedTrace{});
    churn::ChurnEngine synth(synth_cfg ? *synth_cfg
                                       : churn::ChurnConfig{});
    const std::vector<churn::ChurnItem> *plan = nullptr;
    if (mapped) {
        replayer.install(cluster, registry, drv);
        plan = &replayer.plan();
    } else {
        synth.install(cluster, registry, drv);
        plan = &synth.plan();
    }

    ModeMetrics m;
    double depth_sum = 0.0;
    size_t depth_n = 0;
    uint64_t hash = 0xCBF29CE484222325ULL;
    drv.setTickHook([&](double) {
        size_t d = mgr.admission().size();
        depth_sum += double(d);
        ++depth_n;
        m.max_admission_depth = std::max(m.max_admission_depth, d);
        hashClusterState(cluster, hash);
    });

    drv.run(horizon_s);

    const core::QuasarStats &st = mgr.stats();
    m.schedule_calls = st.schedule_time.count;
    m.decisions_per_s = st.schedule_time.total_s > 0.0
                            ? double(st.schedule_time.count) /
                                  st.schedule_time.total_s
                            : 0.0;
    m.mean_admission_depth =
        depth_n ? depth_sum / double(depth_n) : 0.0;
    m.placement_hash = hash;
    m.arrivals = plan->size();

    double qos_sum = 0.0;
    size_t qos_n = 0;
    for (const churn::ChurnItem &item : *plan) {
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    m.qos_violation_rate = qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0;

    for (const churn::ChurnItem &item : *plan) {
        const workload::Workload &w = registry.get(item.id);
        switch (driver::outcomeOf(w)) {
        case driver::WorkloadOutcome::Completed:
            ++m.completed;
            break;
        case driver::WorkloadOutcome::Departed:
            ++m.departed;
            break;
        case driver::WorkloadOutcome::Shed:
            ++m.shed;
            break;
        case driver::WorkloadOutcome::Active:
            break;
        }
        if (w.brownout_ever)
            ++m.degraded;
    }

    m.classify_ms = st.classify_time.meanSeconds() * 1e3;
    m.profile_ms = st.profile_time.meanSeconds() * 1e3;
    m.schedule_ms = st.schedule_time.meanSeconds() * 1e3;
    m.adapt_ms = st.adapt_time.meanSeconds() * 1e3;
    m.rank_ms = mgr.scheduler().timing().rank.meanSeconds() * 1e3;
    m.place_ms = mgr.scheduler().timing().place.meanSeconds() * 1e3;
    m.tick_ms = drv.tickTiming().meanSeconds() * 1e3;
    return m;
}

struct Fixture
{
    const char *name;
    const char *file;
    size_t expected_diagnostics;
    trace::TraceStream stream;
    trace::MappedTrace mapped;
};

bool
checkDiagnostics(const Fixture &fx)
{
    if (fx.stream.rows_rejected == fx.expected_diagnostics &&
        fx.stream.diagnostics.size() == fx.expected_diagnostics)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s expected exactly %zu parser rejections, "
                 "got %zu (%zu diagnostics)\n",
                 fx.name, fx.expected_diagnostics,
                 fx.stream.rows_rejected, fx.stream.diagnostics.size());
    for (const trace::RowDiagnostic &d : fx.stream.diagnostics)
        std::fprintf(stderr, "  line %zu: %s\n", d.line,
                     d.reason.c_str());
    return false;
}

int
runTraceReplayBench(bool smoke, const std::string &out_path,
                    const std::string &traces_dir, bool diag_gate)
{
    const int servers = smoke ? 200 : 500;
    const double horizon = smoke ? 300.0 : 600.0;
    const uint64_t seed = 20260806;

    bench::banner(
        smoke ? "trace replay (smoke): google + azure fixtures"
              : "trace replay: google + azure fixtures, dirty vs "
                "full_rescan + synth leg");

    Fixture fixtures[2] = {
        {"google", "google_task_events.csv", 9, {}, {}},
        {"azure", "azure_vmtable.csv", 7, {}, {}},
    };
    // A line-0 diagnostic means the file could not be opened; fall
    // back to the gzip variant so downloaded traces can stay
    // compressed (decoded by the reader when built with zlib).
    auto unopenable = [](const trace::TraceStream &s) {
        return s.events.empty() && s.diagnostics.size() == 1 &&
               s.diagnostics[0].line == 0;
    };
    fixtures[0].stream = trace::parseGoogleTaskEventsFile(
        traces_dir + "/" + fixtures[0].file);
    if (unopenable(fixtures[0].stream))
        fixtures[0].stream = trace::parseGoogleTaskEventsFile(
            traces_dir + "/" + fixtures[0].file + ".gz");
    fixtures[1].stream = trace::parseAzureVmFile(
        traces_dir + "/" + fixtures[1].file);
    if (unopenable(fixtures[1].stream))
        fixtures[1].stream = trace::parseAzureVmFile(
            traces_dir + "/" + fixtures[1].file + ".gz");

    trace::TraceMapperConfig mcfg;
    mcfg.target_horizon_s = horizon;
    mcfg.target_servers = servers;
    mcfg.seed = seed;
    for (Fixture &fx : fixtures) {
        // The exact-count gate is for the bundled fixtures; a real
        // downloaded trace (--traces=... --no-diag-gate) rejects
        // however many rows it rejects, reported but not gated.
        if (diag_gate && !checkDiagnostics(fx))
            return 1;
        fx.mapped = trace::mapTrace(fx.stream, mcfg);
        std::printf(
            "  %s: %zu rows -> %zu events (%zu ok, %zu ignored, "
            "%zu rejected), %zu mapped instances "
            "(x%.2f population, x%.3f time)\n",
            fx.name, fx.stream.rows_total, fx.stream.events.size(),
            fx.stream.rows_ok, fx.stream.rows_ignored,
            fx.stream.rows_rejected, fx.mapped.items.size(),
            fx.mapped.population_scale, fx.mapped.time_scale);
    }

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"name\": \"trace_replay\",\n"
                 "  \"smoke\": %s,\n  \"servers\": %d,\n"
                 "  \"horizon_s\": %.0f,\n  \"fixtures\": [\n",
                 smoke ? "true" : "false", servers, horizon);
    for (size_t i = 0; i < 2; ++i) {
        const Fixture &fx = fixtures[i];
        std::fprintf(
            out,
            "    {\"name\": \"%s\", \"rows_total\": %zu, "
            "\"rows_ok\": %zu, \"rows_ignored\": %zu, "
            "\"rows_rejected\": %zu, \"events\": %zu, "
            "\"mapped_instances\": %zu, \"population_scale\": %.4f, "
            "\"time_scale\": %.6f}%s\n",
            fx.name, fx.stream.rows_total, fx.stream.rows_ok,
            fx.stream.rows_ignored, fx.stream.rows_rejected,
            fx.stream.events.size(), fx.mapped.items.size(),
            fx.mapped.population_scale, fx.mapped.time_scale,
            i == 0 ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"runs\": [\n");

    struct Run
    {
        const Fixture *fx;
        bool full;
        bool replay_check; ///< second dirty run: stability gate.
    };
    std::vector<Run> runs;
    for (const Fixture &fx : fixtures) {
        runs.push_back({&fx, false, false});
        runs.push_back({&fx, true, false});
        runs.push_back({&fx, false, true});
    }

    bool all_identical = true;
    bool all_stable = true;
    std::vector<std::pair<const Fixture *, uint64_t>> dirty_hashes;
    bool wrote_run = false;
    for (const Run &r : runs) {
        ModeMetrics m = runStream(servers, horizon, r.full,
                                  &r.fx->mapped, nullptr);
        bool identical = true;
        if (!r.full && !r.replay_check) {
            dirty_hashes.emplace_back(r.fx, m.placement_hash);
        } else {
            for (const auto &[fx, h] : dirty_hashes)
                if (fx == r.fx)
                    identical = m.placement_hash == h;
            if (r.replay_check)
                all_stable = all_stable && identical;
            else
                all_identical = all_identical && identical;
        }
        const char *label =
            r.replay_check ? "re-replay" : modeName(r.full);
        std::printf(
            "  %-6s %-11s: %8.0f decisions/s  (%llu calls)  "
            "depth %.1f/%zu  qos-viol %.3f  done %zu, departed %zu, "
            "shed %zu, degraded %zu  %s\n",
            r.fx->name, label, m.decisions_per_s,
            (unsigned long long)m.schedule_calls,
            m.mean_admission_depth, m.max_admission_depth,
            m.qos_violation_rate, m.completed, m.departed, m.shed,
            m.degraded, identical ? "identical" : "DIVERGED");
        std::printf(
            "         breakdown ms: classify %.3f (profile %.3f)  "
            "schedule %.4f (rank %.4f place %.4f)  adapt %.4f  "
            "tick %.3f\n",
            m.classify_ms, m.profile_ms, m.schedule_ms, m.rank_ms,
            m.place_ms, m.adapt_ms, m.tick_ms);
        std::fprintf(
            out,
            "%s    {\"fixture\": \"%s\", \"mode\": \"%s\", "
            "\"arrivals\": %zu, \"decisions_per_s\": %.1f, "
            "\"schedule_calls\": %llu, "
            "\"mean_admission_depth\": %.2f, "
            "\"max_admission_depth\": %zu, "
            "\"qos_violation_rate\": %.4f, "
            "\"completed\": %zu, \"departed\": %zu, \"shed\": %zu, "
            "\"degraded\": %zu, "
            "\"placement_hash\": \"%016llx\", \"identical\": %s, "
            "\"classify_ms\": %.4f, \"profile_ms\": %.4f, "
            "\"schedule_ms\": %.5f, \"adapt_ms\": %.5f, "
            "\"rank_ms\": %.5f, \"place_ms\": %.5f, "
            "\"tick_ms\": %.4f}",
            wrote_run ? ",\n" : "", r.fx->name, label, m.arrivals,
            m.decisions_per_s, (unsigned long long)m.schedule_calls,
            m.mean_admission_depth, m.max_admission_depth,
            m.qos_violation_rate, m.completed, m.departed, m.shed,
            m.degraded,
            (unsigned long long)m.placement_hash,
            identical ? "true" : "false", m.classify_ms, m.profile_ms,
            m.schedule_ms, m.adapt_ms, m.rank_ms, m.place_ms,
            m.tick_ms);
        wrote_run = true;
    }

    // Synthesizer leg (full run only): fit the generator to the
    // mapped Google fixture and drive a 2000-server stream from it.
    // The fitted rate is kept as-is — the fixture runs above already
    // oversubscribe their cluster ~2x, so the same absolute load on
    // 4x the servers lands near saturation instead of deep overload
    // (which would make the run quadratic in admission depth).
    if (!smoke) {
        trace::SynthFit fit =
            trace::fitChurnConfig(fixtures[0].mapped, seed);
        std::printf("  synth fit (google): rate %.2f/s %s, mix "
                    "%.2f/%.2f/%.2f/%.2f, phase %.3f\n",
                    fit.config.arrival_rate_per_s,
                    fit.config.arrivals == churn::ArrivalKind::Pareto
                        ? "pareto"
                        : "poisson",
                    fit.config.mix.single_node,
                    fit.config.mix.analytics, fit.config.mix.service,
                    fit.config.mix.best_effort,
                    fit.config.phase_change_fraction);
        ModeMetrics m = runStream(2000, horizon, false, nullptr,
                                  &fit.config);
        std::printf(
            "  synth  2000 dirty  : %8.0f decisions/s  (%llu calls) "
            " depth %.1f/%zu  qos-viol %.3f  tick %.3f ms\n",
            m.decisions_per_s, (unsigned long long)m.schedule_calls,
            m.mean_admission_depth, m.max_admission_depth,
            m.qos_violation_rate, m.tick_ms);
        std::fprintf(
            out,
            ",\n    {\"fixture\": \"google\", \"mode\": "
            "\"synth_2000_dirty\", \"arrivals\": %zu, "
            "\"decisions_per_s\": %.1f, \"schedule_calls\": %llu, "
            "\"mean_admission_depth\": %.2f, "
            "\"max_admission_depth\": %zu, "
            "\"qos_violation_rate\": %.4f, "
            "\"completed\": %zu, \"departed\": %zu, \"shed\": %zu, "
            "\"degraded\": %zu, "
            "\"placement_hash\": \"%016llx\", \"identical\": true, "
            "\"classify_ms\": %.4f, \"profile_ms\": %.4f, "
            "\"schedule_ms\": %.5f, \"adapt_ms\": %.5f, "
            "\"rank_ms\": %.5f, \"place_ms\": %.5f, "
            "\"tick_ms\": %.4f}",
            m.arrivals, m.decisions_per_s,
            (unsigned long long)m.schedule_calls,
            m.mean_admission_depth, m.max_admission_depth,
            m.qos_violation_rate, m.completed, m.departed, m.shed,
            m.degraded,
            (unsigned long long)m.placement_hash, m.classify_ms,
            m.profile_ms, m.schedule_ms, m.adapt_ms, m.rank_ms,
            m.place_ms, m.tick_ms);
    }

    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: scheduler modes diverged on "
                             "placements under trace replay\n");
        return 1;
    }
    if (!all_stable) {
        std::fprintf(stderr, "FAIL: re-replaying the same mapped "
                             "trace changed placements\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool diag_gate = true;
    std::string out_path = "BENCH_trace_replay.json";
    std::string traces_dir = "tests/traces";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--no-diag-gate")
            diag_gate = false;
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--traces=", 0) == 0)
            traces_dir = arg.substr(9);
    }
    return runTraceReplayBench(smoke, out_path, traces_dir, diag_gate);
}
