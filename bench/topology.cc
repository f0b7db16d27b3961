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
 * behind the headline number), and the per-tick placement hash with
 * the share's home socket folded in.
 *
 * Gates (exit 1):
 *  - replay: the thrash aware leg re-run under the full_rescan
 *    scheduler and re-replayed under dirty must reproduce the placement
 *    hash bit-identically;
 *  - QoS: socket-aware must violate strictly less than topology-blind
 *    on the thrash scenario;
 *  - baseline (with --baseline): the aware thrash leg must stay
 *    within --max-regression (absolute) of the committed
 *    BENCH_topology.json's qos_violation_rate.
 *
 * `--smoke` is the CI variant: the thrash scenario only. The full run
 * adds the bandwidth scenario legs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"

using namespace quasar;

namespace
{

constexpr double kHorizon = 600.0;

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

struct LegMetrics
{
    size_t services = 0;
    double qos_violation_rate = 0.0;
    /** Mean fraction of latency-critical cores homed on socket 0. */
    double lc_socket0_core_frac = 0.0;
    size_t be_completed = 0;
    /** Best-effort cores resident at the final sampled tick. */
    int be_cores_final = 0;
    uint64_t placement_hash = 0;
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
runThrashLeg(int servers, bool aware, bool full_rescan)
{
    sim::Cluster cluster = numaCluster(servers);
    // The co-runner: socket 0 of every machine is being thrashed for
    // the whole run. Injected pressure is invisible to the blind
    // homing rule (it owns no cores) but fully visible to the
    // interference model — exactly the trap topology awareness exists
    // to avoid.
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

    workload::WorkloadFactory factory{stats::Rng(20260813)};
    std::vector<WorkloadId> services;
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
        services.push_back(id);
        drv.addArrival(id, 5.0 * double(i + 1));
    }
    std::vector<WorkloadId> fillers;
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
        fillers.push_back(id);
        drv.addArrival(id, t);
    }

    LegMetrics m;
    m.services = services.size();
    uint64_t hash = 0xCBF29CE484222325ULL;
    double frac_sum = 0.0;
    size_t frac_n = 0;
    drv.setTickHook([&](double) {
        hashClusterState(cluster, hash);
        int lc_cores = 0, lc_socket0 = 0, be_cores = 0;
        for (size_t s = 0; s < cluster.size(); ++s) {
            for (const sim::TaskShare &t :
                 cluster.server(ServerId(s)).tasks()) {
                if (t.best_effort) {
                    be_cores += t.cores;
                    continue;
                }
                lc_cores += t.cores;
                if (t.socket == 0)
                    lc_socket0 += t.cores;
            }
        }
        m.be_cores_final = be_cores;
        if (lc_cores > 0) {
            frac_sum += double(lc_socket0) / double(lc_cores);
            ++frac_n;
        }
    });

    drv.run(kHorizon);

    double qos_sum = 0.0;
    size_t qos_n = 0;
    for (WorkloadId id : services) {
        const driver::ServiceTrace *trace = drv.serviceTrace(id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    m.qos_violation_rate = qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0;
    m.lc_socket0_core_frac =
        frac_n ? frac_sum / double(frac_n) : 0.0;
    for (WorkloadId id : fillers)
        if (registry.get(id).completed)
            ++m.be_completed;
    m.placement_hash = hash;
    return m;
}

LegMetrics
runBandwidthLeg(int servers, bool aware, bool full_rescan)
{
    sim::Cluster cluster = numaCluster(servers);
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
    std::vector<WorkloadId> services;
    for (int i = 0; i < 6; ++i) {
        double q = factory.rng().uniform(1.5e4, 3e4);
        workload::Workload mc = factory.memcachedService(
            "lc-" + std::to_string(i), q, 2e-4, 8.0,
            std::make_shared<tracegen::FlatLoad>(0.9 * q));
        mc.truth.mem_demand_gb = factory.rng().uniform(4.0, 8.0);
        WorkloadId id = registry.add(mc);
        services.push_back(id);
        drv.addArrival(id, 0.4 * kHorizon + 8.0 * double(i + 1));
    }

    LegMetrics m;
    m.services = services.size();
    uint64_t hash = 0xCBF29CE484222325ULL;
    double frac_sum = 0.0;
    size_t frac_n = 0;
    drv.setTickHook([&](double) {
        hashClusterState(cluster, hash);
        int lc_cores = 0, lc_socket0 = 0;
        for (size_t s = 0; s < cluster.size(); ++s) {
            for (const sim::TaskShare &t :
                 cluster.server(ServerId(s)).tasks()) {
                bool lc = false;
                for (WorkloadId id : services)
                    lc = lc || id == t.workload;
                if (!lc)
                    continue;
                lc_cores += t.cores;
                if (t.socket == 0)
                    lc_socket0 += t.cores;
            }
        }
        if (lc_cores > 0) {
            frac_sum += double(lc_socket0) / double(lc_cores);
            ++frac_n;
        }
    });

    drv.run(kHorizon);

    double qos_sum = 0.0;
    size_t qos_n = 0;
    for (WorkloadId id : services) {
        const driver::ServiceTrace *trace = drv.serviceTrace(id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    m.qos_violation_rate = qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0;
    m.lc_socket0_core_frac =
        frac_n ? frac_sum / double(frac_n) : 0.0;
    m.placement_hash = hash;
    return m;
}

/** qos_violation_rate of the named leg in a committed baseline. */
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
            std::strstr(line, "\"qos_violation_rate\":");
        if (key)
            qos = std::atof(key +
                            std::strlen("\"qos_violation_rate\":"));
        break;
    }
    std::fclose(f);
    return qos;
}

void
printLeg(const char *name, const LegMetrics &m)
{
    std::printf("  %-18s: qos-viol %.3f  lc-on-socket0 %.3f  "
                "be-done %zu (cores %d)  place %016llx\n",
                name, m.qos_violation_rate, m.lc_socket0_core_frac,
                m.be_completed, m.be_cores_final,
                (unsigned long long)m.placement_hash);
}

int
runTopologyBench(bool smoke, const std::string &out_path,
                 const std::string &baseline_path,
                 double max_regression)
{
    const int servers = 8;

    bench::banner(
        smoke ? "NUMA topology (smoke): cache-thrashed socket, "
                "aware vs blind homing"
              : "NUMA topology: cache-thrash + bandwidth scenarios, "
                "aware vs blind homing");

    struct Leg
    {
        const char *name;
        const char *scenario;
        bool aware;
        bool full_rescan;
        LegMetrics m;
    };
    std::vector<Leg> legs = {
        {"thrash-aware", "thrash", true, false, {}},
        {"thrash-blind", "thrash", false, false, {}},
        {"thrash-aware-full_rescan", "thrash", true, true, {}},
        {"thrash-aware-replay", "thrash", true, false, {}},
    };
    if (!smoke) {
        legs.push_back({"bw-aware", "bandwidth", true, false, {}});
        legs.push_back({"bw-blind", "bandwidth", false, false, {}});
    }

    for (Leg &leg : legs) {
        std::printf("  running %s...\n", leg.name);
        std::fflush(stdout);
        leg.m = std::strcmp(leg.scenario, "thrash") == 0
                    ? runThrashLeg(servers, leg.aware, leg.full_rescan)
                    : runBandwidthLeg(servers, leg.aware,
                                      leg.full_rescan);
    }

    // Replay gate: the aware thrash decision stream must reproduce
    // bit-identically across the scheduler index mode (dirty vs
    // full_rescan) and across a full re-run.
    const LegMetrics &aware = legs[0].m;
    bool replay_ok = true;
    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"name\": \"topology\",\n  \"smoke\": %s,\n"
                 "  \"servers\": %d,\n  \"horizon_s\": %.0f,\n"
                 "  \"legs\": [\n",
                 smoke ? "true" : "false", servers, kHorizon);
    for (size_t i = 0; i < legs.size(); ++i) {
        const Leg &leg = legs[i];
        bool identical = true;
        if (leg.aware && std::strcmp(leg.scenario, "thrash") == 0 &&
            std::strcmp(leg.name, "thrash-aware") != 0)
            identical = leg.m.placement_hash == aware.placement_hash;
        replay_ok = replay_ok && identical;
        printLeg(leg.name, leg.m);
        if (!identical)
            std::printf("        ^^ DIVERGED from thrash-aware\n");
        std::fprintf(
            out,
            "    {\"leg\": \"%s\", \"scenario\": \"%s\", "
            "\"servers\": %d, \"aware\": %s, \"mode\": \"%s\", "
            "\"services\": %zu, \"qos_violation_rate\": %.4f, "
            "\"lc_socket0_core_frac\": %.4f, \"be_completed\": %zu, "
            "\"placement_hash\": \"%016llx\", "
            "\"identical\": %s}%s\n",
            leg.name, leg.scenario, servers,
            leg.aware ? "true" : "false",
            leg.full_rescan ? "full_rescan" : "dirty", leg.m.services,
            leg.m.qos_violation_rate, leg.m.lc_socket0_core_frac,
            leg.m.be_completed,
            (unsigned long long)leg.m.placement_hash,
            identical ? "true" : "false",
            i + 1 == legs.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    int rc = 0;
    if (!replay_ok) {
        std::fprintf(stderr,
                     "FAIL: topology decisions diverged across "
                     "scheduler modes / re-replay\n");
        rc = 1;
    }
    const LegMetrics &blind = legs[1].m;
    if (!(aware.qos_violation_rate < blind.qos_violation_rate)) {
        std::fprintf(stderr,
                     "FAIL: socket-aware homing does not improve QoS "
                     "on the thrash scenario (%.4f vs blind %.4f)\n",
                     aware.qos_violation_rate,
                     blind.qos_violation_rate);
        rc = 1;
    } else {
        std::printf(
            "qos gate ok: thrash violation aware %.4f < blind %.4f "
            "(lc cores on the thrashed socket: %.3f vs %.3f)\n",
            aware.qos_violation_rate, blind.qos_violation_rate,
            aware.lc_socket0_core_frac, blind.lc_socket0_core_frac);
    }
    if (!baseline_path.empty()) {
        double base = baselineQos(baseline_path, "thrash-aware");
        if (std::isnan(base)) {
            std::printf("no usable baseline at %s; skipping the "
                        "regression gate\n",
                        baseline_path.c_str());
        } else if (aware.qos_violation_rate > base + max_regression) {
            std::fprintf(stderr,
                         "FAIL: thrash-aware qos violation %.4f "
                         "regressed more than %.2f above the "
                         "committed baseline %.4f\n",
                         aware.qos_violation_rate, max_regression,
                         base);
            rc = 1;
        } else {
            std::printf("baseline gate ok: %.4f vs committed %.4f "
                        "(+%.2f allowed)\n",
                        aware.qos_violation_rate, base,
                        max_regression);
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_topology.json";
    std::string baseline_path;
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
    }
    return runTopologyBench(smoke, out_path, baseline_path,
                            max_regression);
}
