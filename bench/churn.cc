/**
 * @file
 * Churn bench: sustained open-loop workload streams through the full
 * Quasar manager at 1k / 5k / 10k / 50k / 100k servers. Every scale
 * runs the production dirty-set decision path; up to 10k the legacy
 * full_rescan path replays the identical seeded stream as the
 * equivalence referee. At 50k and 100k full_rescan's O(N)-per-call
 * walk is too slow to be a useful referee, so those scales instead
 * run the dirty mode twice ("dirty-rerun") and require the two
 * replays to produce identical placement hashes — a determinism
 * check at the scale the maintained order was built for.
 *
 * For each (scale, mode) the bench reports sustained decisions/sec,
 * admission-queue depth, the QoS-violation rate of the latency
 * services in the stream, and the full wall-clock breakdown —
 * classify / profile / schedule / adapt from QuasarStats, rank /
 * place from SchedulerTiming, and the driver tick envelope — then
 * writes everything to BENCH_churn.json.
 *
 * Divergence detection: every tick folds the complete allocation
 * state (server x workload x cores) into a running FNV-1a hash; any
 * placement difference between scheduler modes at any tick produces
 * different final hashes. The bench fails if the modes diverge, and
 * (with --baseline) if the dirty-mode decisions/sec at a committed
 * scale regressed more than --max-regression, or its placement hash
 * moved, against the committed BENCH_churn.json.
 *
 * `--smoke` is the CI variant: the 1000-server slice only, both
 * modes, plus a dirty-only 10k leg, same horizon as the full run so
 * its decisions/sec compare directly against the committed baseline.
 * The full run adds 5000 to 100000 servers.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.hh"
#include "churn/churn.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"

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
modeName(bool full, bool rerun)
{
    if (rerun)
        return "dirty-rerun";
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
    size_t completed = 0;
    size_t killed = 0;
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

churn::ChurnConfig
streamFor(int servers, double horizon_s)
{
    churn::ChurnConfig cfg;
    cfg.seed = 20260806;
    cfg.arrivals = churn::ArrivalKind::Pareto;
    cfg.pareto_alpha = 1.6;
    // Open-loop pressure scales with the cluster so the decision path
    // stays busy at every size.
    cfg.arrival_rate_per_s = 0.6 * double(servers) / 1000.0;
    cfg.horizon_s = horizon_s;
    cfg.phase_change_fraction = 0.06;
    cfg.server_mttf_s = 40.0 * horizon_s * double(servers);
    cfg.server_mttr_s = horizon_s / 6.0;
    // Short heavy-tailed lifetimes: steady arrival/departure churn
    // within the bench horizon.
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.4 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

ModeMetrics
runMode(int servers, double horizon_s, bool full)
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

    churn::ChurnEngine engine(streamFor(servers, horizon_s));
    engine.install(cluster, registry, drv);

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

    // QoS violations: mean shortfall of the in-QoS fraction over all
    // latency services the stream created.
    double qos_sum = 0.0;
    size_t qos_n = 0;
    for (const churn::ChurnItem &item : engine.plan()) {
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    m.qos_violation_rate = qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0;

    for (const churn::ChurnItem &item : engine.plan()) {
        const workload::Workload &w = registry.get(item.id);
        if (w.killed)
            ++m.killed;
        else if (w.completed)
            ++m.completed;
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

struct BaselineRow
{
    bool found = false;
    double rate = std::nan("");
    uint64_t hash = 0;
};

/** The committed dirty-mode row for a scale: decisions/s + hash.
 *  The mode match includes the closing quote so "dirty-rerun" rows
 *  never alias "dirty". */
BaselineRow
baselineDirty(const std::string &path, int servers)
{
    BaselineRow row;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return row;
    char line[1024];
    char want[64];
    std::snprintf(want, sizeof(want), "\"servers\": %d,", servers);
    while (std::fgets(line, sizeof(line), f)) {
        if (!std::strstr(line, want) ||
            !std::strstr(line, "\"mode\": \"dirty\""))
            continue;
        const char *key = std::strstr(line, "\"decisions_per_s\":");
        if (key)
            row.rate =
                std::atof(key + std::strlen("\"decisions_per_s\":"));
        const char *hkey = std::strstr(line, "\"placement_hash\": \"");
        if (hkey)
            row.hash = std::strtoull(
                hkey + std::strlen("\"placement_hash\": \""), nullptr,
                16);
        row.found = true;
        break;
    }
    std::fclose(f);
    return row;
}

int
runChurnBench(bool smoke, const std::string &out_path,
              const std::string &baseline_path, double max_regression)
{
    struct Point
    {
        int servers;
        bool full;
        bool rerun; // dirty run #2: determinism referee at big scales
    };
    std::vector<Point> points;
    // Smoke runs the same horizon as the full bench (so its numbers
    // are directly comparable to the committed baseline) but only
    // the 1000-server slice plus a dirty-only 10k leg — seconds
    // instead of minutes.
    const double horizon = 900.0;
    // full_rescan referees the dirty path up to 10k; it is O(N) per
    // call, so at 50k/100k the referee is a second seeded dirty
    // replay that must reproduce the placement hash exactly.
    points.push_back({1000, false, false});
    points.push_back({1000, true, false});
    if (smoke) {
        points.push_back({10000, false, false});
    } else {
        points.push_back({5000, false, false});
        points.push_back({5000, true, false});
        points.push_back({10000, false, false});
        points.push_back({10000, true, false});
        points.push_back({50000, false, false});
        points.push_back({50000, false, true});
        points.push_back({100000, false, false});
        points.push_back({100000, false, true});
    }

    bench::banner(smoke ? "churn stream (smoke): dirty vs full_rescan "
                          "at 1k, dirty at 10k"
                        : "churn stream: dirty vs full_rescan to 10k, "
                          "dirty re-replay to 100k servers");

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"name\": \"churn\",\n  \"smoke\": %s,\n"
                 "  \"horizon_s\": %.0f,\n  \"scales\": [\n",
                 smoke ? "true" : "false", horizon);

    // placement hash per scale from the dirty run: the full_rescan
    // and dirty-rerun legs must reproduce it exactly.
    std::vector<std::pair<int, uint64_t>> dirty_hashes;
    // (servers, decisions/s, hash) of every primary dirty leg, for
    // the baseline gates below.
    std::vector<std::tuple<int, double, uint64_t>> dirty_results;
    bool all_identical = true;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        ModeMetrics m = runMode(p.servers, horizon, p.full);
        bool identical = true;
        if (!p.full && !p.rerun) {
            dirty_hashes.emplace_back(p.servers, m.placement_hash);
            dirty_results.emplace_back(p.servers, m.decisions_per_s,
                                       m.placement_hash);
        } else {
            for (const auto &[srv, h] : dirty_hashes)
                if (srv == p.servers)
                    identical = m.placement_hash == h;
            all_identical = all_identical && identical;
        }
        std::printf(
            "  %5d servers %-11s: %8.0f decisions/s  (%llu calls)  "
            "depth %.1f/%zu  qos-viol %.3f  done %zu, killed %zu  "
            "%s\n",
            p.servers, modeName(p.full, p.rerun), m.decisions_per_s,
            (unsigned long long)m.schedule_calls,
            m.mean_admission_depth, m.max_admission_depth,
            m.qos_violation_rate, m.completed, m.killed,
            identical ? "identical" : "DIVERGED");
        std::printf(
            "        breakdown ms: classify %.3f (profile %.3f)  "
            "schedule %.4f (rank %.4f place %.4f)  adapt %.4f  "
            "tick %.3f\n",
            m.classify_ms, m.profile_ms, m.schedule_ms, m.rank_ms,
            m.place_ms, m.adapt_ms, m.tick_ms);
        std::fprintf(
            out,
            "    {\"servers\": %d, \"mode\": \"%s\", "
            "\"decisions_per_s\": %.1f, \"schedule_calls\": %llu, "
            "\"mean_admission_depth\": %.2f, "
            "\"max_admission_depth\": %zu, "
            "\"qos_violation_rate\": %.4f, "
            "\"completed\": %zu, \"killed\": %zu, "
            "\"placement_hash\": \"%016llx\", \"identical\": %s, "
            "\"classify_ms\": %.4f, \"profile_ms\": %.4f, "
            "\"schedule_ms\": %.5f, \"adapt_ms\": %.5f, "
            "\"rank_ms\": %.5f, \"place_ms\": %.5f, "
            "\"tick_ms\": %.4f",
            p.servers, modeName(p.full, p.rerun), m.decisions_per_s,
            (unsigned long long)m.schedule_calls,
            m.mean_admission_depth, m.max_admission_depth,
            m.qos_violation_rate, m.completed, m.killed,
            (unsigned long long)m.placement_hash,
            identical ? "true" : "false", m.classify_ms, m.profile_ms,
            m.schedule_ms, m.adapt_ms, m.rank_ms, m.place_ms,
            m.tick_ms);
        std::fprintf(out, "}%s\n",
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: scheduler modes (or dirty "
                             "re-replays) diverged on placements "
                             "under churn\n");
        return 1;
    }
    if (!baseline_path.empty()) {
        // Gate every dirty leg whose scale has a committed row:
        // throughput must be within max_regression of the baseline,
        // and the placement hash must reproduce it exactly (seeded
        // stream + deterministic decision path).
        bool any = false;
        for (const auto &[servers, rate, hash] : dirty_results) {
            BaselineRow base = baselineDirty(baseline_path, servers);
            if (!base.found || std::isnan(base.rate) ||
                base.rate <= 0.0)
                continue;
            any = true;
            if (!(rate > base.rate * (1.0 - max_regression))) {
                std::fprintf(stderr,
                             "FAIL: dirty decisions/s at %d servers "
                             "(%.0f) regressed >%.0f%% vs baseline "
                             "%.0f\n",
                             servers, rate, max_regression * 100.0,
                             base.rate);
                return 1;
            }
            if (base.hash != 0 && hash != base.hash) {
                std::fprintf(stderr,
                             "FAIL: dirty placement hash at %d "
                             "servers (%016llx) diverged from the "
                             "committed baseline (%016llx)\n",
                             servers, (unsigned long long)hash,
                             (unsigned long long)base.hash);
                return 1;
            }
            std::printf("gate ok at %d servers: %.0f decisions/s vs "
                        "baseline %.0f (limit -%.0f%%), hash "
                        "reproduced\n",
                        servers, rate, base.rate,
                        max_regression * 100.0);
        }
        if (!any)
            std::printf("no usable baseline at %s; skipping the "
                        "regression gates\n",
                        baseline_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_churn.json";
    std::string baseline_path;
    double max_regression = 0.25;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = arg.substr(11);
        else if (arg.rfind("--max-regression=", 0) == 0)
            max_regression = std::atof(arg.c_str() + 17);
    }
    return runChurnBench(smoke, out_path, baseline_path,
                         max_regression);
}
