/**
 * @file
 * NUMA topology bench (DESIGN.md §13): does cache-aware socket
 * selection buy QoS on multi-socket machines?
 *
 * Two scenarios on a cluster of 2-socket servers:
 *
 *  - thrash: a cache-thrashing co-runner occupies socket 0 of every
 *    machine (persistent injected LLC/memory-bandwidth/prefetch
 *    pressure — the classic streaming antagonist), plus a stream of
 *    best-effort LLC-noisy fillers. Latency-critical memcached
 *    services arrive on top. Socket-aware selection homes them on the
 *    quiet socket; the topology-blind rule (fewest homed cores — the
 *    pre-topology behaviour) walks them straight into the thrashed
 *    socket, which injected pressure makes look empty.
 *
 *  - bandwidth: no injection; bandwidth-bound Spark-style analytics
 *    (boosted MemoryBw caused pressure) share the machines with
 *    latency-critical webservices, so the pressure asymmetry between
 *    sockets emerges from placement itself rather than a fixed
 *    antagonist.
 *
 * Per leg the bench reports the services' QoS-violation rate, the
 * fraction of latency-critical cores homed on socket 0 (the mechanism
 * behind the headline number), and the per-tick placement hash
 * (bench::foldCluster, which folds in each share's home socket).
 *
 * Gates (exit 1):
 *  - replay: the thrash aware leg re-run under the full_rescan
 *    scheduler and re-replayed under dirty must reproduce the placement
 *    hash bit-identically;
 *  - QoS: socket-aware must violate strictly less than topology-blind
 *    on the thrash scenario;
 *  - baseline (with --baseline): the aware thrash leg must stay
 *    within --max-regression (absolute) of the committed
 *    BENCH_topology.json's qos_violation_rate, and its placement hash
 *    must equal the committed one.
 *
 * `--smoke` is the CI variant: the thrash scenario only. The full run
 * adds the bandwidth scenario legs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace quasar;

namespace
{

constexpr double kHorizon = 600.0;
constexpr int kServers = 8;

/** Cluster of the 2-socket preset (16 cores, 8 per socket). */
sim::Cluster
numaCluster(int servers)
{
    auto catalog = sim::numaPlatforms();
    std::vector<int> counts(catalog.size(), 0);
    for (size_t i = 0; i < catalog.size(); ++i)
        if (catalog[i].topology.numSockets() == 2)
            counts[i] = servers;
    return sim::Cluster(catalog, counts);
}

/** The streaming antagonist: LLC + memory bandwidth + prefetchers. */
interference::IVector
thrasherPressure()
{
    interference::IVector v{};
    v[size_t(interference::Source::MemoryBw)] = 0.55;
    v[size_t(interference::Source::LLCache)] = 0.65;
    v[size_t(interference::Source::L2Cache)] = 0.30;
    v[size_t(interference::Source::Prefetch)] = 0.45;
    return v;
}

/** The workloads a scenario added. */
struct Scenario
{
    std::vector<WorkloadId> services; ///< latency-critical.
    std::vector<WorkloadId> fillers;  ///< best-effort.
};

/**
 * Thrash scenario: one memcached service per machine on top of a
 * stream of LLC-noisy best-effort fillers.
 */
Scenario
addThrash(workload::WorkloadRegistry &registry,
          driver::ScenarioDriver &drv, int servers)
{
    Scenario sc;
    workload::WorkloadFactory factory{stats::Rng(20260813)};
    for (int i = 0; i < servers; ++i) {
        double q = factory.rng().uniform(4e4, 7e4);
        workload::Workload mc = factory.memcachedService(
            "mc-" + std::to_string(i), q, 2e-4, 8.0,
            std::make_shared<tracegen::FlatLoad>(0.9 * q));
        // Cache-resident working set: the scenario contends on the
        // LLC and memory bandwidth, not on DRAM capacity (the 48 GB
        // machines would otherwise fill on memory with idle cores).
        mc.truth.mem_demand_gb = factory.rng().uniform(4.0, 8.0);
        WorkloadId id = registry.add(mc);
        sc.services.push_back(id);
        drv.addArrival(id, 5.0 * double(i + 1));
    }
    for (double t = 8.0; t < 0.7 * kHorizon; t += 12.0) {
        workload::Workload be = factory.bestEffortJob("be");
        // Short enough to finish inside the horizon.
        be.total_work *= 0.3;
        // LLC-noisy but insensitive fillers: they cause cache traffic
        // wherever they land yet tolerate anything, so both homing
        // rules treat them alike and the legs differ only in where
        // the latency-critical work goes.
        auto &sens = be.truth.sensitivity;
        sens.caused_per_core[size_t(interference::Source::LLCache)] +=
            0.06;
        sens.caused_per_core[size_t(interference::Source::MemoryBw)] +=
            0.04;
        for (size_t i = 0; i < interference::kNumSources; ++i)
            sens.threshold[i] = std::max(sens.threshold[i], 0.9);
        // Modest rate target: fillers should squeeze into whatever
        // the services leave over instead of queueing forever.
        be.target.rate *= 0.4;
        WorkloadId id = registry.add(be);
        sc.fillers.push_back(id);
        drv.addArrival(id, t);
    }
    return sc;
}

/**
 * Bandwidth scenario: bandwidth-bound analytics hogs and compute
 * ballast on every machine, then a handful of latency-critical
 * services.
 */
Scenario
addBandwidth(const sim::Cluster &cluster,
             workload::WorkloadRegistry &registry,
             driver::ScenarioDriver &drv, int servers)
{
    Scenario sc;
    workload::WorkloadFactory factory{stats::Rng(20260814)};
    // Heavy-small hogs first: one bandwidth-bound Spark-style job per
    // machine, two cores each but streaming through memory an order
    // of magnitude harder per core than anything else here. Pressure
    // and core count are DECOUPLED — the precondition for the blind
    // homing rule to go wrong. Their own MemoryBw sensitivity spreads
    // them one per machine, homed socket 0 by the tie rule.
    for (int i = 0; i < servers; ++i) {
        workload::Workload job = factory.sparkJob(
            "bw-" + std::to_string(i),
            factory.rng().uniform(8.0, 14.0));
        auto &sens = job.truth.sensitivity;
        sens.caused_per_core[size_t(
            interference::Source::MemoryBw)] += 0.30;
        sens.caused_per_core[size_t(
            interference::Source::LLCache)] += 0.10;
        job.truth.parallelism = 2.0;
        // Long-lived: resident for the whole run.
        job.total_work *= 8.0;
        job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
            job, cluster.catalog()[1], 1, 8.0);
        drv.addArrival(registry.add(job), 2.0 + 10.0 * double(i));
    }
    // Light-big ballast second, one per machine: compute-bound,
    // several cores, causing almost nothing. Both homing rules put it
    // opposite the hog, inverting the core-count signal: the quiet
    // socket now HOLDS MORE CORES than the bandwidth-thrashed one.
    for (int i = 0; i < servers; ++i) {
        workload::Workload b = factory.singleNodeJob("ballast",
                                                     "specjbb");
        auto &sens = b.truth.sensitivity;
        for (size_t j = 0; j < interference::kNumSources; ++j)
            sens.caused_per_core[j] *= 0.25;
        b.target.rate *= 2.0;
        b.total_work *= 8.0;
        drv.addArrival(registry.add(b), 100.0 + 8.0 * double(i));
    }
    // Latency-critical services last, into machines where the
    // fewest-cores rule points straight at the bandwidth hogs.
    for (int i = 0; i < 6; ++i) {
        double q = factory.rng().uniform(1.5e4, 3e4);
        workload::Workload mc = factory.memcachedService(
            "lc-" + std::to_string(i), q, 2e-4, 8.0,
            std::make_shared<tracegen::FlatLoad>(0.9 * q));
        mc.truth.mem_demand_gb = factory.rng().uniform(4.0, 8.0);
        WorkloadId id = registry.add(mc);
        sc.services.push_back(id);
        drv.addArrival(id, 0.4 * kHorizon + 8.0 * double(i + 1));
    }

    return sc;
}

bench::Row
runLeg(bool thrash, bool aware, bool full_rescan)
{
    sim::Cluster cluster = numaCluster(kServers);
    // The thrash co-runner: socket 0 of every machine is being
    // thrashed for the whole run. Injected pressure is invisible to
    // the blind homing rule (it owns no cores) but fully visible to
    // the interference model — exactly the trap topology awareness
    // exists to avoid.
    if (thrash)
        for (size_t s = 0; s < cluster.size(); ++s)
            cluster.server(ServerId(s))
                .injectPressureAt(0, thrasherPressure());

    workload::WorkloadRegistry registry;
    core::QuasarConfig qcfg;
    qcfg.scheduler.full_rescan = full_rescan;
    qcfg.scheduler.socket_aware = aware;
    core::QuasarManager mgr(cluster, registry, qcfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 10.0, .record_every = 2});
    const Scenario sc = thrash ? addThrash(registry, drv, kServers)
                               : addBandwidth(cluster, registry, drv,
                                              kServers);

    uint64_t hash = bench::kFnvBasis;
    double frac_sum = 0.0;
    size_t frac_n = 0;
    int be_cores_final = 0;
    drv.setTickHook([&](double) {
        bench::foldCluster(cluster, hash);
        int lc_cores = 0, lc_socket0 = 0, be_cores = 0;
        for (size_t s = 0; s < cluster.size(); ++s) {
            for (const sim::TaskShare &t :
                 cluster.server(ServerId(s)).tasks()) {
                if (t.best_effort)
                    be_cores += t.cores;
                if (std::find(sc.services.begin(), sc.services.end(),
                              t.workload) == sc.services.end())
                    continue;
                lc_cores += t.cores;
                if (t.socket == 0)
                    lc_socket0 += t.cores;
            }
        }
        be_cores_final = be_cores;
        if (lc_cores > 0) {
            frac_sum += double(lc_socket0) / double(lc_cores);
            ++frac_n;
        }
    });

    drv.run(kHorizon);

    double qos_sum = 0.0;
    size_t qos_n = 0;
    for (WorkloadId id : sc.services) {
        const driver::ServiceTrace *trace = drv.serviceTrace(id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    size_t be_completed = 0;
    for (WorkloadId id : sc.fillers)
        be_completed += registry.get(id).completed ? 1 : 0;
    return bench::Row()
        .count("services", sc.services.size())
        .num("qos_violation_rate",
             qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0, 4)
        .num("lc_socket0_core_frac",
             frac_n ? frac_sum / double(frac_n) : 0.0, 4)
        .count("be_completed", be_completed)
        .count("be_cores_final", uint64_t(be_cores_final))
        .hex("placement_hash", hash);
}

bench::Leg
leg(const char *name, bool thrash, bool aware, bool full_rescan,
    int reproduces = -1)
{
    return {bench::Row()
                .text("leg", name)
                .text("scenario", thrash ? "thrash" : "bandwidth")
                .count("servers", kServers)
                .flag("aware", aware)
                .text("mode", full_rescan ? "full_rescan" : "dirty"),
            [=] { return runLeg(thrash, aware, full_rescan); },
            reproduces};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(
        argc, argv, bench::kTakesBaseline, "BENCH_topology.json", 0.05);

    // The aware thrash leg (index 0) must reproduce bit-identically
    // across the scheduler index mode (dirty vs full_rescan) and
    // across a full re-run.
    std::vector<bench::Leg> legs = {
        leg("thrash-aware", true, true, false),
        leg("thrash-blind", true, false, false),
        leg("thrash-aware-full_rescan", true, true, true, 0),
        leg("thrash-aware-replay", true, true, false, 0),
    };
    if (!args.smoke) {
        legs.push_back(leg("bw-aware", false, true, false));
        legs.push_back(leg("bw-blind", false, false, false));
    }

    bench::banner(
        args.smoke ? "NUMA topology (smoke): cache-thrashed socket, "
                     "aware vs blind homing"
                   : "NUMA topology: cache-thrash + bandwidth scenarios, "
                     "aware vs blind homing");
    bool identical = false;
    const std::vector<std::string> rows = bench::runLegs(legs, identical);
    if (!bench::writeReport(args.out,
                            bench::Row()
                                .text("name", "topology")
                                .flag("smoke", args.smoke)
                                .count("servers", kServers)
                                .num("horizon_s", kHorizon, 0),
                            {{"legs", rows}}))
        return 1;

    int rc = identical ? 0 : 1;
    const double aware = bench::rowNumber(rows[0], "qos_violation_rate");
    const double blind = bench::rowNumber(rows[1], "qos_violation_rate");
    if (!(aware < blind)) {
        std::fprintf(stderr,
                     "FAIL: socket-aware homing does not improve QoS "
                     "on the thrash scenario (%.4f vs blind %.4f)\n",
                     aware, blind);
        rc = 1;
    } else {
        std::printf(
            "qos gate ok: thrash violation aware %.4f < blind %.4f "
            "(lc cores on the thrashed socket: %.3f vs %.3f)\n",
            aware, blind,
            bench::rowNumber(rows[0], "lc_socket0_core_frac"),
            bench::rowNumber(rows[1], "lc_socket0_core_frac"));
    }
    if (!args.baseline.empty() &&
        !bench::checkBaseline(args.baseline, legs[0].keys, rows[0],
                              {{"placement_hash"}, "qos_violation_rate",
                               false},
                              args.max_regression))
        rc = 1;
    return rc;
}
