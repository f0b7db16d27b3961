/**
 * @file
 * Overload-control bench: open-loop diurnal + flash-crowd traffic
 * through the full manager, controller off vs on, reporting the QoS
 * cost of overload and what shedding / backpressure / brownout / the
 * PI service autoscaler buy back.
 *
 * Traffic: ChurnEngine stream shaped by a PiecewiseLoad rate pattern
 * — a diurnal swell (0.5x -> 1.1x of the configured rate) with a
 * flash crowd at t in [450, 600) that multiplies the arrival rate by
 * 10. The mix is best-effort heavy (the Alibaba co-location shape) so
 * the controller has sheddable work to sacrifice for the latency
 * services.
 *
 * Per leg the bench reports the four-way QoS outcome split (completed
 * / departed / shed / active, plus degraded-ever), shed fraction,
 * goodput, the latency services' QoS-violation rate, time-in-state of
 * the detector, controller counters, and both replay hashes: the
 * per-tick placement fold and the controller's own decision hash.
 *
 * Gates (exit 1):
 *  - replay: the controller-on leg re-run under the full_rescan
 *    scheduler and re-replayed under dirty must reproduce both hashes
 *    bit-identically;
 *  - accounting: completed + departed + shed + active == arrivals in
 *    every leg (no arrival leaks out of the outcome split);
 *  - QoS: controller-on must violate strictly less than
 *    controller-off over the crowd-and-recovery window [450, 750),
 *    and (with --baseline) must stay within --max-regression
 *    (absolute) of the committed BENCH_overload.json's on-dirty
 *    crowd-window violation rate.
 *
 * `--smoke` is the CI variant: the 200-server legs only. The full
 * run adds 500-server off/on legs and google-trace-fitted synth
 * legs (trace::fitChurnConfig) with the same flash-crowd overlay.
 * (500, not 1000: the controller-off leg at 1000 servers spends
 * tens of minutes draining a many-hundred-deep admission queue
 * against a saturated cluster — all cost, no extra signal.)
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "churn/churn.hh"
#include "core/manager.hh"
#include "core/overload.hh"
#include "driver/scenario.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/synth.hh"
#include "tracegen/load_pattern.hh"

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

/** The flash crowd hits at 450 s; QoS is also scored over the crowd
 *  plus its recovery tail, where overload control earns its keep. */
constexpr double kCrowdStart = 450.0;
constexpr double kCrowdWindowEnd = 750.0;

/** Diurnal swell with a 10x flash crowd at t in [450, 600). */
tracegen::LoadPatternPtr
diurnalFlashCrowd()
{
    return std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.5},
                                               {150.0, 0.9},
                                               {300.0, 1.1},
                                               {440.0, 1.0},
                                               {450.0, 10.0},
                                               {595.0, 10.0},
                                               {600.0, 1.0},
                                               {750.0, 0.7},
                                               {900.0, 0.5}});
}

/** Best-effort-heavy open-loop stream shaped by the crowd pattern. */
churn::ChurnConfig
streamFor(int servers, double horizon_s)
{
    churn::ChurnConfig cfg;
    cfg.seed = 20260808;
    cfg.arrivals = churn::ArrivalKind::Poisson;
    cfg.arrival_rate_per_s = 0.16 * double(servers) / 200.0;
    cfg.rate_pattern = diurnalFlashCrowd();
    cfg.horizon_s = horizon_s;
    cfg.mix = {0.30, 0.15, 0.15, 0.40};
    cfg.phase_change_fraction = 0.05;
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.5 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

/** The controller configuration every "on" leg runs. */
core::OverloadConfig
controllerOn()
{
    core::OverloadConfig cfg;
    cfg.enabled = true;
    cfg.util_pressured = 0.85;
    cfg.util_overloaded = 0.97;
    cfg.depth_pressured = 8;
    cfg.depth_overloaded = 24;
    cfg.min_dwell_s = 30.0;
    cfg.defer_base_s = 15.0;
    cfg.defer_max_s = 60.0;
    cfg.shed_deadline_s = 120.0;
    cfg.aging_limit_s = 240.0;
    cfg.brownout = true;
    cfg.policy = core::ScalingPolicyKind::Pi;
    cfg.scale_interval_s = 30.0;
    return cfg;
}

struct LegMetrics
{
    size_t arrivals = 0;
    size_t completed = 0;
    size_t departed = 0;
    size_t shed = 0;
    size_t active = 0;
    size_t degraded = 0;
    double shed_fraction = 0.0;
    double goodput_fraction = 0.0;
    double qos_violation_rate = 0.0;
    /** Same, but over [kCrowdStart, kCrowdWindowEnd) only. */
    double qos_violation_crowd = 0.0;
    double frac_pressured = 0.0;
    double frac_overloaded = 0.0;
    size_t deferred = 0;
    size_t brownouts = 0;
    size_t restores = 0;
    size_t autoscale_updates = 0;
    size_t transitions = 0;
    double decisions_per_s = 0.0;
    double mean_admission_depth = 0.0;
    size_t max_admission_depth = 0;
    uint64_t placement_hash = 0;
    uint64_t decision_hash = 0;
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
        fold(uint64_t(s) << 32 | uint64_t(srv.coresAllocated()));
        for (const sim::TaskShare &t : srv.tasks()) {
            // Socket folded into the high bits of the workload
            // word: ids stay far below 2^48, and socket 0 leaves the
            // pre-topology hash untouched (flat bit-identity).
            fold(uint64_t(t.workload) | uint64_t(t.socket) << 48);
            fold(uint64_t(t.cores));
        }
    }
}

LegMetrics
runLeg(int servers, double horizon_s, const churn::ChurnConfig &ccfg,
       bool controller, bool full_rescan)
{
    sim::Cluster cluster = clusterOfSize(servers);
    workload::WorkloadRegistry registry;

    core::QuasarConfig qcfg;
    qcfg.scheduler.full_rescan = full_rescan;
    qcfg.proactive_interval_s = horizon_s / 3.0;
    if (controller)
        qcfg.overload = controllerOn();
    core::QuasarManager mgr(cluster, registry, qcfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 15.0, .record_every = 2});

    churn::ChurnEngine engine(ccfg);
    engine.install(cluster, registry, drv);

    LegMetrics m;
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
    m.arrivals = engine.plan().size();
    for (const churn::ChurnItem &item : engine.plan()) {
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
            ++m.active;
            break;
        }
        if (w.brownout_ever)
            ++m.degraded;
    }
    m.shed_fraction =
        m.arrivals ? double(m.shed) / double(m.arrivals) : 0.0;
    m.goodput_fraction =
        m.arrivals ? double(m.completed + m.departed) / double(m.arrivals)
                   : 0.0;

    double qos_sum = 0.0;
    size_t qos_n = 0;
    double crowd_sum = 0.0;
    size_t crowd_n = 0;
    for (const churn::ChurnItem &item : engine.plan()) {
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
        // Crowd-window score only for services that were actually
        // sampled inside the window (meanOver returns 0 when none
        // were, which would misread absence as total violation).
        const stats::TimeSeries &qf = trace->qos_fraction;
        bool in_window = false;
        for (size_t i = 0; i < qf.size() && !in_window; ++i)
            in_window = qf.timeAt(i) >= kCrowdStart &&
                        qf.timeAt(i) < kCrowdWindowEnd;
        if (in_window) {
            crowd_sum += qf.meanOver(kCrowdStart, kCrowdWindowEnd);
            ++crowd_n;
        }
    }
    m.qos_violation_rate = qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0;
    m.qos_violation_crowd =
        crowd_n ? 1.0 - crowd_sum / double(crowd_n) : 0.0;

    const core::OverloadController &ctl = mgr.overload();
    m.frac_pressured = ctl.fractionIn(core::OverloadState::Pressured);
    m.frac_overloaded = ctl.fractionIn(core::OverloadState::Overloaded);
    m.deferred = st.overload_deferred;
    m.brownouts = st.brownouts;
    m.restores = st.brownout_restores;
    m.autoscale_updates = st.autoscale_updates;
    m.transitions = st.overload_transitions;
    m.decisions_per_s = st.schedule_time.total_s > 0.0
                            ? double(st.schedule_time.count) /
                                  st.schedule_time.total_s
                            : 0.0;
    m.mean_admission_depth =
        depth_n ? depth_sum / double(depth_n) : 0.0;
    m.placement_hash = hash;
    m.decision_hash = ctl.decisionHash();
    return m;
}

/** qos_violation_crowd of the named leg in a committed baseline. */
double
baselineQos(const std::string &path, const char *leg)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return std::nan("");
    char line[2048];
    char want[64];
    std::snprintf(want, sizeof(want), "\"leg\": \"%s\"", leg);
    double qos = std::nan("");
    while (std::fgets(line, sizeof(line), f)) {
        if (!std::strstr(line, want))
            continue;
        const char *key =
            std::strstr(line, "\"qos_violation_crowd\":");
        if (key)
            qos = std::atof(key +
                            std::strlen("\"qos_violation_crowd\":"));
        break;
    }
    std::fclose(f);
    return qos;
}

void
printLeg(const char *name, const LegMetrics &m)
{
    std::printf(
        "  %-15s: qos-viol %.3f (crowd %.3f)  shed %.3f (%zu)  "
        "goodput %.3f  done %zu dep %zu act %zu  degr %zu  "
        "t-press %.2f t-over %.2f\n",
        name, m.qos_violation_rate, m.qos_violation_crowd,
        m.shed_fraction, m.shed, m.goodput_fraction, m.completed,
        m.departed, m.active, m.degraded, m.frac_pressured,
        m.frac_overloaded);
    std::printf(
        "        controller: defer %zu brownout %zu/%zu "
        "autoscale %zu transitions %zu  depth %.1f/%zu  "
        "%.0f decisions/s  place %016llx decide %016llx\n",
        m.deferred, m.brownouts, m.restores, m.autoscale_updates,
        m.transitions, m.mean_admission_depth, m.max_admission_depth,
        m.decisions_per_s, (unsigned long long)m.placement_hash,
        (unsigned long long)m.decision_hash);
}

void
writeLeg(std::FILE *out, const char *name, int servers,
         bool controller, const char *mode, const LegMetrics &m,
         bool identical, bool last)
{
    std::fprintf(
        out,
        "    {\"leg\": \"%s\", \"servers\": %d, "
        "\"controller\": %s, \"mode\": \"%s\", "
        "\"arrivals\": %zu, \"completed\": %zu, "
        "\"departed\": %zu, \"shed\": %zu, \"active\": %zu, "
        "\"degraded\": %zu, \"shed_fraction\": %.4f, "
        "\"goodput_fraction\": %.4f, "
        "\"qos_violation_rate\": %.4f, "
        "\"qos_violation_crowd\": %.4f, "
        "\"frac_pressured\": %.4f, \"frac_overloaded\": %.4f, "
        "\"deferred\": %zu, \"brownouts\": %zu, "
        "\"restores\": %zu, \"autoscale_updates\": %zu, "
        "\"transitions\": %zu, \"decisions_per_s\": %.1f, "
        "\"mean_admission_depth\": %.2f, "
        "\"max_admission_depth\": %zu, "
        "\"placement_hash\": \"%016llx\", "
        "\"decision_hash\": \"%016llx\", \"identical\": %s}%s\n",
        name, servers, controller ? "true" : "false", mode,
        m.arrivals, m.completed, m.departed, m.shed, m.active,
        m.degraded, m.shed_fraction, m.goodput_fraction,
        m.qos_violation_rate, m.qos_violation_crowd,
        m.frac_pressured, m.frac_overloaded,
        m.deferred, m.brownouts, m.restores, m.autoscale_updates,
        m.transitions, m.decisions_per_s, m.mean_admission_depth,
        m.max_admission_depth, (unsigned long long)m.placement_hash,
        (unsigned long long)m.decision_hash,
        identical ? "true" : "false", last ? "" : ",");
}

int
runOverloadBench(bool smoke, const std::string &out_path,
                 const std::string &baseline_path,
                 double max_regression,
                 const std::string &traces_dir)
{
    const double horizon = 900.0;
    const int gate_servers = 200;

    bench::banner(smoke ? "overload control (smoke): flash crowd, "
                          "controller off vs on"
                        : "overload control: flash crowd at 200/500 "
                          "servers + google-fitted synth legs");

    struct Leg
    {
        const char *name;
        int servers;
        bool controller;
        bool full_rescan;
        LegMetrics m;
    };
    std::vector<Leg> legs = {
        {"off-dirty", gate_servers, false, false, {}},
        {"on-dirty", gate_servers, true, false, {}},
        {"on-full_rescan", gate_servers, true, true, {}},
        {"on-dirty-replay", gate_servers, true, false, {}},
    };
    if (!smoke) {
        legs.push_back({"off-500", 500, false, false, {}});
        legs.push_back({"on-500", 500, true, false, {}});
    }

    for (Leg &leg : legs) {
        std::printf("  running %s...\n", leg.name);
        std::fflush(stdout);
        leg.m = runLeg(leg.servers, horizon,
                       streamFor(leg.servers, horizon),
                       leg.controller, leg.full_rescan);
    }

    // Full-run synth legs: fit a churn stream to the bundled google
    // fixture and overlay the same flash-crowd pattern on it, so the
    // crowd rides on trace-shaped arrivals and lifetimes.
    if (!smoke) {
        trace::TraceStream stream = trace::parseGoogleTaskEventsFile(
            traces_dir + "/google_task_events.csv");
        if (stream.events.empty())
            stream = trace::parseGoogleTaskEventsFile(
                traces_dir + "/google_task_events.csv.gz");
        if (stream.events.empty()) {
            std::printf("no google fixture under %s; skipping the "
                        "synth legs\n",
                        traces_dir.c_str());
        } else {
            trace::TraceMapperConfig mcfg;
            mcfg.target_horizon_s = horizon;
            mcfg.target_servers = 500;
            mcfg.seed = 20260808;
            trace::MappedTrace mapped = trace::mapTrace(stream, mcfg);
            trace::SynthFit fit =
                trace::fitChurnConfig(mapped, 20260808, horizon);
            churn::ChurnConfig synth = fit.config;
            synth.rate_pattern = diurnalFlashCrowd();
            // The fitted rate reflects the trace's average
            // pressure; clamp it so the 10x crowd overlay lands in
            // the overload regime without drowning the off leg in a
            // many-thousand-deep queue (the google fixture fits to
            // ~6.3/s at 500 servers, which the crowd would multiply
            // to ~63/s — hours of saturated-cluster retries for no
            // extra signal).
            synth.arrival_rate_per_s =
                std::clamp(synth.arrival_rate_per_s, 0.4, 0.5);
            std::printf("  running synth legs (fitted rate "
                        "%.3f/s)...\n",
                        synth.arrival_rate_per_s);
            std::fflush(stdout);
            legs.push_back({"synth-off", 500, false, false,
                            runLeg(500, horizon, synth, false, false)});
            legs.push_back({"synth-on", 500, true, false,
                            runLeg(500, horizon, synth, true, false)});
        }
    }

    // Replay gate: every controller-on leg at the gate scale must
    // reproduce the on-dirty leg's placement AND decision hashes —
    // across the scheduler index mode and across a full re-replay.
    const LegMetrics &on = legs[1].m;
    bool replay_ok = true;
    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"name\": \"overload\",\n  \"smoke\": %s,\n"
                 "  \"horizon_s\": %.0f,\n  \"legs\": [\n",
                 smoke ? "true" : "false", horizon);
    for (size_t i = 0; i < legs.size(); ++i) {
        const Leg &leg = legs[i];
        bool identical = true;
        if (leg.controller && leg.servers == gate_servers &&
            std::strcmp(leg.name, "on-dirty") != 0)
            identical = leg.m.placement_hash == on.placement_hash &&
                        leg.m.decision_hash == on.decision_hash;
        replay_ok = replay_ok && identical;
        printLeg(leg.name, leg.m);
        if (!identical)
            std::printf("        ^^ DIVERGED from on-dirty\n");
        writeLeg(out, leg.name, leg.servers, leg.controller,
                 leg.full_rescan ? "full_rescan" : "dirty", leg.m,
                 identical,
                 i + 1 == legs.size());
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    int rc = 0;
    if (!replay_ok) {
        std::fprintf(stderr,
                     "FAIL: overload decisions diverged across "
                     "scheduler modes / re-replay\n");
        rc = 1;
    }
    for (const Leg &leg : legs) {
        size_t sum = leg.m.completed + leg.m.departed + leg.m.shed +
                     leg.m.active;
        if (sum != leg.m.arrivals) {
            std::fprintf(stderr,
                         "FAIL: leg %s leaks arrivals: "
                         "%zu + %zu + %zu + %zu != %zu\n",
                         leg.name, leg.m.completed, leg.m.departed,
                         leg.m.shed, leg.m.active, leg.m.arrivals);
            rc = 1;
        }
    }
    const LegMetrics &off = legs[0].m;
    if (!(on.qos_violation_crowd < off.qos_violation_crowd)) {
        std::fprintf(stderr,
                     "FAIL: controller on does not improve "
                     "crowd-window QoS (%.4f vs off %.4f)\n",
                     on.qos_violation_crowd, off.qos_violation_crowd);
        rc = 1;
    } else {
        std::printf("qos gate ok: crowd-window violation on %.4f < "
                    "off %.4f (shed %.3f of arrivals for it)\n",
                    on.qos_violation_crowd, off.qos_violation_crowd,
                    on.shed_fraction);
    }
    if (!baseline_path.empty()) {
        double base = baselineQos(baseline_path, "on-dirty");
        if (std::isnan(base)) {
            std::printf("no usable baseline at %s; skipping the "
                        "regression gate\n",
                        baseline_path.c_str());
        } else if (on.qos_violation_crowd > base + max_regression) {
            std::fprintf(stderr,
                         "FAIL: on-dirty crowd-window qos violation "
                         "%.4f regressed more than %.2f above the "
                         "committed baseline %.4f\n",
                         on.qos_violation_crowd, max_regression,
                         base);
            rc = 1;
        } else {
            std::printf("baseline gate ok: %.4f vs committed %.4f "
                        "(+%.2f allowed)\n",
                        on.qos_violation_crowd, base, max_regression);
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_overload.json";
    std::string baseline_path;
    std::string traces_dir = "tests/traces";
    double max_regression = 0.05;
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
        else if (arg.rfind("--traces=", 0) == 0)
            traces_dir = arg.substr(9);
    }
    return runOverloadBench(smoke, out_path, baseline_path,
                            max_regression, traces_dir);
}
