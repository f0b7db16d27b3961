#include "workloads.hh"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "churn/churn.hh"
#include "core/overload.hh"
#include "driver/scenario.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "tracegen/load_pattern.hh"

using namespace quasar;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The paper's EC2 testbed, scaled up by replicating its mix. */
sim::Cluster
clusterOfSize(int servers)
{
    if (servers == 200)
        return sim::Cluster::ec2Cluster();
    std::vector<int> counts = {6, 6, 8, 14, 6, 8, 16, 30,
                               8, 30, 8, 16, 30, 14};
    for (int &c : counts)
        c *= servers / 200;
    return sim::Cluster(sim::ec2Platforms(), counts);
}

/** bench/churn.cc's heavy-tailed stream, scaled to the cluster. */
churn::ChurnConfig
churnStream(const WorkloadSpec &spec, uint64_t seed)
{
    const double h = spec.horizon_s;
    churn::ChurnConfig cfg;
    cfg.seed = seed;
    cfg.arrivals = churn::ArrivalKind::Pareto;
    cfg.pareto_alpha = 1.6;
    cfg.arrival_rate_per_s = 0.6 * double(spec.servers) / 1000.0;
    cfg.horizon_s = h;
    cfg.phase_change_fraction = 0.06;
    cfg.server_mttf_s = 40.0 * h * double(spec.servers);
    cfg.server_mttr_s = h / 6.0;
    cfg.service_lifetime = tracegen::DurationSpec::lognormal(0.4 * h, 0.6);
    cfg.analytics_lifetime = tracegen::DurationSpec::pareto(0.25 * h, 1.8);
    cfg.batch_lifetime = tracegen::DurationSpec::exponential(0.2 * h);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * h);
    return cfg;
}

/**
 * bench/overload.cc's best-effort-heavy stream: a diurnal swell with a
 * 10x flash crowd at t in [450, 600).
 */
churn::ChurnConfig
flashCrowdStream(const WorkloadSpec &spec, uint64_t seed)
{
    const double h = spec.horizon_s;
    churn::ChurnConfig cfg;
    cfg.seed = seed;
    cfg.arrivals = churn::ArrivalKind::Poisson;
    cfg.arrival_rate_per_s = 0.16 * double(spec.servers) / 200.0;
    cfg.rate_pattern = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.5},
                                               {150.0, 0.9},
                                               {300.0, 1.1},
                                               {440.0, 1.0},
                                               {450.0, 10.0},
                                               {595.0, 10.0},
                                               {600.0, 1.0},
                                               {750.0, 0.7},
                                               {900.0, 0.5}});
    cfg.horizon_s = h;
    cfg.mix = {0.30, 0.15, 0.15, 0.40};
    cfg.phase_change_fraction = 0.05;
    cfg.service_lifetime = tracegen::DurationSpec::lognormal(0.5 * h, 0.6);
    cfg.analytics_lifetime = tracegen::DurationSpec::pareto(0.25 * h, 1.8);
    cfg.batch_lifetime = tracegen::DurationSpec::exponential(0.2 * h);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * h);
    return cfg;
}

/** bench/overload.cc's controller-on configuration. */
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

/** Mean shortfall of the in-QoS fraction over the stream's services,
 *  as bench/churn.cc defines it. */
double
qosViolationRate(const driver::ScenarioDriver &drv,
                 const std::vector<churn::ChurnItem> &plan)
{
    double sum = 0.0;
    size_t n = 0;
    for (const churn::ChurnItem &item : plan) {
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        sum += trace->qos_fraction.mean();
        ++n;
    }
    return n ? 1.0 - sum / double(n) : 0.0;
}

/** The output checks of one finished repetition. */
void
checkOutputs(const sim::Cluster &cluster,
             const workload::WorkloadRegistry &registry,
             const core::QuasarManager &mgr, RepResult &r)
{
    const Outcomes &o = r.outcomes;
    auto fail = [&r](std::string what) { r.errors.push_back(what); };
    if (o.completed + o.departed + o.shed + o.active != o.arrivals)
        fail("completed + departed + shed + active != arrivals");
    if (o.arrivals != registry.size())
        fail("registry holds workloads the stream did not submit");
    if (o.shed != mgr.stats().shed)
        fail("shed outcomes disagree with QuasarStats::shed");
    if (o.active != registry.active().size())
        fail("active outcomes disagree with the registry");
    for (size_t s = 0; s < cluster.size(); ++s)
        if (!cluster.server(ServerId(s)).checkInvariants()) {
            fail("server " + std::to_string(s) +
                 " fails checkInvariants()");
            break;
        }
}

} // namespace

WorkloadSpec
workloadSpec(const std::string &name, uint64_t seed,
             const std::string &data_dir)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.seed = seed;
    if (name == "churn-10k") {
        spec.streams = 8;
        spec.servers = 10000;
        spec.horizon_s = 900.0;
    } else if (name == "trace-google") {
        spec.streams = 4;
        spec.servers = 200;
        spec.horizon_s = 300.0;
        spec.trace_path = data_dir + "/google_task_events.csv";
        spec.expected_rejected_rows = 9;
    } else if (name == "flash-crowd") {
        spec.streams = 12;
        spec.servers = 1000;
        spec.horizon_s = 900.0;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return spec;
}

uint64_t
placementHash(const sim::Cluster &cluster)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    auto fold = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ULL;
    };
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        fold(uint64_t(s) << 32 | uint64_t(srv.available()));
        for (const sim::TaskShare &t : srv.tasks()) {
            fold(uint64_t(t.workload) | uint64_t(t.socket) << 48);
            fold(uint64_t(t.cores));
        }
    }
    return h;
}

trace::TraceStream
parseTrace(const WorkloadSpec &spec, std::vector<std::string> &errors)
{
    trace::TraceStream stream =
        trace::parseGoogleTaskEventsFile(spec.trace_path);
    if (stream.rows_rejected != spec.expected_rejected_rows ||
        stream.diagnostics.size() != spec.expected_rejected_rows)
        errors.push_back("trace parser rejected " +
                         std::to_string(stream.rows_rejected) + " rows (" +
                         std::to_string(stream.diagnostics.size()) +
                         " diagnostics), expected exactly " +
                         std::to_string(spec.expected_rejected_rows));
    return stream;
}

uint64_t
streamSeed(uint64_t seed, size_t i)
{
    return seed + uint64_t(i) * 0x9E3779B97F4A7C15ULL;
}

RepResult
runRep(const WorkloadSpec &spec, size_t stream, Wiring wiring)
{
    const uint64_t seed = streamSeed(spec.seed, stream);
    RepResult r;
    r.horizon_s = spec.horizon_s;
    const bool trace = !spec.trace_path.empty();
    const bool crowd = spec.name == "flash-crowd";

    // Set-up 1: cluster and manager construction.
    Clock::time_point t0 = Clock::now();
    sim::Cluster cluster = clusterOfSize(spec.servers);
    workload::WorkloadRegistry registry;
    core::QuasarConfig qcfg;
    qcfg.proactive_interval_s = spec.horizon_s / 3.0;
    if (crowd)
        qcfg.overload = controllerOn();
    core::QuasarManager mgr(cluster, registry, qcfg);
    r.setup_cluster_s = since(t0);

    // Set-up 2: offline seeding of the classification matrices.
    t0 = Clock::now();
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);
    r.setup_seed_offline_s = since(t0);

    // Set-up 3: the stream (generation, or trace parse and map) and
    // the driver it is installed on.
    t0 = Clock::now();
    std::optional<TimedManager> timed;
    if (wiring != Wiring::Direct)
        timed.emplace(
            mgr,
            [&mgr] {
                const core::QuasarStats &st = mgr.stats();
                const core::SchedulerTiming &tm = mgr.scheduler().timing();
                return LayerClock{st.classify_time.total_s,
                                  st.schedule_time.total_s,
                                  tm.rank.total_s, tm.place.total_s};
            },
            wiring == Wiring::Traced);
    driver::ClusterManager &front =
        timed ? static_cast<driver::ClusterManager &>(*timed) : mgr;
    driver::ScenarioDriver drv(
        cluster, registry, front,
        driver::DriverConfig{.tick_s = 15.0, .record_every = 2});

    std::optional<churn::ChurnEngine> engine;
    std::optional<trace::TraceReplayer> replayer;
    const std::vector<churn::ChurnItem> *plan = nullptr;
    if (trace) {
        trace::TraceStream stream = parseTrace(spec, r.errors);
        trace::TraceMapperConfig mcfg;
        mcfg.target_horizon_s = spec.horizon_s;
        mcfg.target_servers = spec.servers;
        mcfg.seed = seed;
        replayer.emplace(trace::mapTrace(stream, mcfg));
        replayer->install(cluster, registry, drv);
        plan = &replayer->plan();
    } else {
        engine.emplace(crowd ? flashCrowdStream(spec, seed)
                             : churnStream(spec, seed));
        engine->install(cluster, registry, drv);
        plan = &engine->plan();
    }
    r.setup_stream_s = since(t0);

    // Admission depth, sampled in O(1) after every manager tick.
    double depth_sum = 0.0;
    drv.setTickHook([&](double) {
        size_t d = mgr.admission().size();
        depth_sum += double(d);
        ++r.ticks;
        r.depth_max = std::max(r.depth_max, d);
    });

    if (timed)
        timed->startRun();
    t0 = Clock::now();
    drv.run(spec.horizon_s);
    r.wall_s = since(t0);
    if (timed)
        timed->endRun();

    std::vector<WorkloadId> ids;
    ids.reserve(plan->size());
    for (const churn::ChurnItem &item : *plan)
        ids.push_back(item.id);
    r.outcomes = outcomesOf(registry, ids);
    r.qos_violation_rate = qosViolationRate(drv, *plan);
    r.cpu_util_mean = drv.aggCpuUsed().mean();
    r.placement_hash = placementHash(cluster);
    r.decision_hash = mgr.overload().decisionHash();

    if (timed) {
        for (size_t c = 0; c < kCalls; ++c)
            r.calls[c] = timed->totals(Call(c));
        r.submit_s = timed->submitSeconds();
        r.step_s = timed->stepSeconds();
        r.tick_s = timed->tickSeconds();
        r.spans = timed->spans();
    }
    r.stats = mgr.stats();
    r.sched_timing = mgr.scheduler().timing();
    r.online_rows = mgr.classifier().onlineRows();
    r.depth_mean = r.ticks ? depth_sum / double(r.ticks) : 0.0;

    checkOutputs(cluster, registry, mgr, r);
    return r;
}

} // namespace perfbench
