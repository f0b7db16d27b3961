/**
 * @file
 * A/B equivalence proof for the incremental decision path: the cached
 * platform/interference indices and maintained candidate order must
 * pick the exact same placements as the legacy full-rescan path
 * (SchedulerConfig::full_rescan) — first at the scheduler level over a
 * many-seed sweep of perturbed clusters, then end-to-end through the
 * manager on a compact Fig. 6-style mixed scenario, and finally under
 * open-loop churn: a many-seed sweep of seeded arrival / departure /
 * fault streams where both decision paths (dirty-set journal index,
 * legacy full rescan) must finish in the same simulated state
 * workload for workload.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "churn/churn.hh"
#include "core/classifier.hh"
#include "core/manager.hh"
#include "core/scheduler.hh"
#include "driver/scenario.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::Allocation;
using core::GreedyScheduler;
using core::SchedulerConfig;
using core::WorkloadEstimate;
using workload::Workload;

namespace
{

/** Structural equality of two allocation decisions. */
void
expectSameAllocation(const std::optional<Allocation> &a,
                     const std::optional<Allocation> &b,
                     const std::string &ctx)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << ctx;
    if (!a)
        return;
    EXPECT_EQ(a->degraded, b->degraded) << ctx;
    EXPECT_DOUBLE_EQ(a->predicted_perf, b->predicted_perf) << ctx;
    ASSERT_EQ(a->nodes.size(), b->nodes.size()) << ctx;
    for (size_t i = 0; i < a->nodes.size(); ++i) {
        EXPECT_EQ(a->nodes[i].server, b->nodes[i].server) << ctx;
        EXPECT_EQ(a->nodes[i].scale_up_col, b->nodes[i].scale_up_col)
            << ctx;
        EXPECT_EQ(a->nodes[i].cores, b->nodes[i].cores) << ctx;
        EXPECT_DOUBLE_EQ(a->nodes[i].memory_gb, b->nodes[i].memory_gb)
            << ctx;
    }
    ASSERT_EQ(a->evictions.size(), b->evictions.size()) << ctx;
    for (size_t i = 0; i < a->evictions.size(); ++i)
        EXPECT_EQ(a->evictions[i], b->evictions[i]) << ctx;
}

/** Per-seed world: classifier anchored on the cluster's own catalog. */
struct SweepWorld
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 3};
    workload::WorkloadFactory factory;
    stats::Rng rng;

    explicit SweepWorld(uint64_t seed)
        : factory{stats::Rng(seed)}, rng{seed + 1}
    {
        std::vector<Workload> seeds;
        for (int i = 0; i < 5; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 150.0)));
        static const char *fams[] = {"spec-int", "parsec", "specjbb",
                                     "mix"};
        for (int i = 0; i < 6; ++i)
            seeds.push_back(factory.singleNodeJob("seed", fams[i % 4]));
        clf.seedOffline(seeds, 0.0);
    }

    std::pair<WorkloadId, WorkloadEstimate> make(Workload w)
    {
        WorkloadId id = registry.add(std::move(w));
        auto data = profiler.profile(registry.get(id), 0.0, rng);
        return {id, clf.classify(registry.get(id), data)};
    }

    /** Commit a decision so the next placement sees its effects. */
    void apply(WorkloadId id, const Allocation &alloc)
    {
        Workload &w = registry.get(id);
        for (const auto &[sid, victim] : alloc.evictions)
            cluster.server(sid).remove(victim);
        for (const auto &node : alloc.nodes) {
            sim::TaskShare share;
            share.workload = id;
            share.cores = node.cores;
            share.memory_gb = node.memory_gb;
            share.storage_gb = w.storage_gb_per_node;
            share.caused = w.causedPressure(0.0, node.cores);
            share.best_effort = w.best_effort;
            cluster.server(node.server).place(share);
        }
    }

    /** Seed-dependent occupancy, degradations, and downed servers. */
    void perturb(const Workload &be)
    {
        for (size_t s = 0; s < cluster.size(); ++s) {
            sim::Server &srv = cluster.server(ServerId(s));
            if (rng.chance(0.10)) {
                srv.markDown();
                continue;
            }
            if (rng.chance(0.15))
                srv.degrade(rng.uniform(0.3, 0.9));
            if (!rng.chance(0.6))
                continue;
            int cores = std::max(1, srv.platform().cores / 4);
            double mem = srv.platform().memory_gb / 8.0;
            int fills = int(rng.uniformInt(1, 3));
            for (int k = 0; k < fills; ++k) {
                if (!srv.canFit(cores, mem, 0.0))
                    break;
                sim::TaskShare share;
                share.workload =
                    WorkloadId(1000000 + s * 8 + size_t(k));
                share.cores = cores;
                share.memory_gb = mem;
                share.caused = be.causedPressure(0.0, cores);
                share.best_effort = true;
                srv.place(share);
            }
        }
    }

    Workload randomWorkload()
    {
        switch (rng.uniformInt(0, 2)) {
        case 0:
            return factory.hadoopJob("job",
                                     rng.uniform(10.0, 120.0));
        case 1: {
            static const char *fams[] = {"spec-int", "parsec",
                                         "specjbb", "mix"};
            return factory.singleNodeJob("one",
                                         fams[rng.uniformInt(0, 3)]);
        }
        default:
            return factory.bestEffortJob("be");
        }
    }
};

} // namespace

TEST(DecisionPath, IncrementalMatchesFullRescanAcrossSeeds)
{
    constexpr int kSeeds = 24;
    constexpr int kPlacementsPerSeed = 8;
    for (int seed = 0; seed < kSeeds; ++seed) {
        SweepWorld w(uint64_t(100 + seed));
        Workload be = w.factory.bestEffortJob("filler");
        w.perturb(be);

        SchedulerConfig inc_cfg; // incremental (default)
        SchedulerConfig full_cfg;
        full_cfg.full_rescan = true;
        GreedyScheduler inc(w.cluster, inc_cfg);
        GreedyScheduler full(w.cluster, full_cfg);

        for (int p = 0; p < kPlacementsPerSeed; ++p) {
            auto [id, est] = w.make(w.randomWorkload());
            const Workload &job = w.registry.get(id);
            double target = job.total_work > 0.0
                                ? job.total_work / 600.0
                                : 1.0;
            bool may_evict = (p % 2 == 0);
            auto a = inc.allocate(job, est, target, nullptr,
                                  may_evict);
            auto b = full.allocate(job, est, target, nullptr,
                                   may_evict);
            std::string ctx = "seed " + std::to_string(seed) +
                              " placement " + std::to_string(p);
            expectSameAllocation(a, b, ctx);
            if (a)
                w.apply(id, *a); // both schedulers see the commit
            // Mid-stream fault: caches must track it too.
            if (p == kPlacementsPerSeed / 2) {
                ServerId sid =
                    ServerId(w.rng.uniformInt(0, int64_t(w.cluster.size()) - 1));
                w.cluster.server(sid).markDown();
            }
        }
    }
}

namespace
{

/** Run a compact Fig. 6-style mixed scenario; return the driver's
 *  final state for comparison. */
struct MixedRun
{
    std::vector<double> work_done;
    std::vector<bool> completed;
    std::vector<double> completion_time;
    std::vector<std::vector<ServerId>> hosting;
    core::QuasarStats stats;
};

MixedRun
runMixedScenario(bool full_rescan)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.seed = 71;
    cfg.scheduler.full_rescan = full_rescan;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(72)};
    mgr.seedOffline(seeder, 20);

    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0,
                                                    .record_every = 3});
    workload::WorkloadFactory f{stats::Rng(73)};
    std::vector<WorkloadId> ids;
    for (int i = 0; i < 8; ++i) {
        Workload j = f.hadoopJob("mahout-" + std::to_string(i + 1),
                                 f.rng().uniform(5.0, 60.0));
        j.total_work *= 3.0;
        ids.push_back(registry.add(j));
    }
    for (int i = 0; i < 2; ++i)
        ids.push_back(registry.add(f.stormJob(
            "storm-" + std::to_string(i + 1),
            f.rng().uniform(4.0, 25.0))));
    for (int i = 0; i < 2; ++i)
        ids.push_back(registry.add(f.sparkJob(
            "spark-" + std::to_string(i + 1),
            f.rng().uniform(4.0, 30.0))));
    for (size_t i = 0; i < ids.size(); ++i)
        drv.addArrival(ids[i], 5.0 * double(i + 1));
    for (double t = 30.0; t < 3000.0; t += 30.0) {
        WorkloadId id = registry.add(f.bestEffortJob("be"));
        ids.push_back(id);
        drv.addArrival(id, t);
    }
    drv.run(4500.0);

    MixedRun r;
    for (WorkloadId id : ids) {
        const Workload &w = registry.get(id);
        r.work_done.push_back(w.work_done);
        r.completed.push_back(w.completed);
        r.completion_time.push_back(w.completed ? w.completion_time
                                                : -1.0);
        r.hosting.push_back(cluster.serversHosting(id));
    }
    r.stats = mgr.stats();
    return r;
}

} // namespace

TEST(DecisionPath, MixedScenarioIsBitIdenticalToFullRescan)
{
    MixedRun inc = runMixedScenario(false);
    MixedRun full = runMixedScenario(true);

    ASSERT_EQ(inc.work_done.size(), full.work_done.size());
    for (size_t i = 0; i < inc.work_done.size(); ++i) {
        EXPECT_DOUBLE_EQ(inc.work_done[i], full.work_done[i])
            << "workload " << i;
        EXPECT_EQ(inc.completed[i], full.completed[i])
            << "workload " << i;
        EXPECT_DOUBLE_EQ(inc.completion_time[i],
                         full.completion_time[i])
            << "workload " << i;
        EXPECT_EQ(inc.hosting[i], full.hosting[i]) << "workload " << i;
    }

    // Every decision counter must agree; the TimerStat fields are
    // wall-clock and excluded by design.
    EXPECT_EQ(inc.stats.scheduled, full.stats.scheduled);
    EXPECT_EQ(inc.stats.queued, full.stats.queued);
    EXPECT_EQ(inc.stats.rescheduled, full.stats.rescheduled);
    EXPECT_EQ(inc.stats.evictions, full.stats.evictions);
    EXPECT_EQ(inc.stats.phase_reclassifications,
              full.stats.phase_reclassifications);
    EXPECT_EQ(inc.stats.scale_up_adjustments,
              full.stats.scale_up_adjustments);
    EXPECT_EQ(inc.stats.scale_out_adjustments,
              full.stats.scale_out_adjustments);
    EXPECT_EQ(inc.stats.shrinks, full.stats.shrinks);
    EXPECT_EQ(inc.stats.feedback_updates, full.stats.feedback_updates);
    EXPECT_EQ(inc.stats.partitions_granted,
              full.stats.partitions_granted);
    EXPECT_EQ(inc.stats.server_failures, full.stats.server_failures);
    EXPECT_EQ(inc.stats.tasks_displaced, full.stats.tasks_displaced);
    EXPECT_EQ(inc.stats.recoveries, full.stats.recoveries);
}

namespace
{

/** Scheduler decision-path variants under test. */
enum class Mode
{
    DirtySet,
    FullRescan,
};

/** Final simulated state of one churn run, for equality checks. */
struct ChurnRun
{
    std::vector<double> work_done;
    std::vector<bool> completed;
    std::vector<bool> killed;
    std::vector<std::vector<ServerId>> hosting;
    size_t scheduled = 0;
    size_t evictions = 0;
    size_t server_failures = 0;
    size_t recoveries = 0;
};

ChurnRun
runChurnScenario(uint64_t seed, Mode mode)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.seed = 7;
    cfg.scheduler.full_rescan = mode == Mode::FullRescan;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(8)};
    mgr.seedOffline(seeder, 12);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 10.0, .record_every = 4});

    churn::ChurnConfig ccfg;
    ccfg.seed = seed;
    ccfg.arrivals = churn::ArrivalKind::Pareto;
    ccfg.arrival_rate_per_s = 0.15;
    ccfg.horizon_s = 400.0;
    ccfg.phase_change_fraction = 0.15;
    // ~4 expected machine events over the horizon: every mode must
    // track displacements and recoveries identically.
    ccfg.server_mttf_s = 4000.0;
    ccfg.server_mttr_s = 120.0;
    ccfg.service_lifetime = tracegen::DurationSpec::lognormal(200.0, 0.7);
    ccfg.analytics_lifetime = tracegen::DurationSpec::pareto(150.0, 1.8);
    ccfg.batch_lifetime = tracegen::DurationSpec::exponential(120.0);
    ccfg.best_effort_lifetime = tracegen::DurationSpec::exponential(80.0);
    churn::ChurnEngine engine(ccfg);
    engine.install(cluster, registry, drv);
    drv.run(ccfg.horizon_s);

    ChurnRun r;
    for (const churn::ChurnItem &item : engine.plan()) {
        const Workload &w = registry.get(item.id);
        r.work_done.push_back(w.work_done);
        r.completed.push_back(w.completed);
        r.killed.push_back(w.killed);
        r.hosting.push_back(cluster.serversHosting(item.id));
    }
    const core::QuasarStats &st = mgr.stats();
    r.scheduled = st.scheduled;
    r.evictions = st.evictions;
    r.server_failures = st.server_failures;
    r.recoveries = st.recoveries;
    return r;
}

void
expectSameChurnRun(const ChurnRun &a, const ChurnRun &b,
                   const std::string &ctx)
{
    ASSERT_EQ(a.work_done.size(), b.work_done.size()) << ctx;
    for (size_t i = 0; i < a.work_done.size(); ++i) {
        std::string wctx = ctx + " workload " + std::to_string(i);
        EXPECT_DOUBLE_EQ(a.work_done[i], b.work_done[i]) << wctx;
        EXPECT_EQ(a.completed[i], b.completed[i]) << wctx;
        EXPECT_EQ(a.killed[i], b.killed[i]) << wctx;
        EXPECT_EQ(a.hosting[i], b.hosting[i]) << wctx;
    }
    EXPECT_EQ(a.scheduled, b.scheduled) << ctx;
    EXPECT_EQ(a.evictions, b.evictions) << ctx;
    EXPECT_EQ(a.server_failures, b.server_failures) << ctx;
    EXPECT_EQ(a.recoveries, b.recoveries) << ctx;
}

} // namespace

TEST(DecisionPath, ChurnSweepAllModesBitIdentical)
{
    constexpr uint64_t kSeeds = 20;
    size_t total_failures = 0;
    size_t total_kills = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        ChurnRun full = runChurnScenario(seed, Mode::FullRescan);
        ChurnRun dirty = runChurnScenario(seed, Mode::DirtySet);
        std::string ctx = "seed " + std::to_string(seed);
        expectSameChurnRun(dirty, full, ctx + " dirty-vs-full");
        total_failures += full.server_failures;
        for (bool k : full.killed)
            total_kills += k ? 1 : 0;
    }
    // The sweep only proves something if churn actually happened:
    // departures retired workloads and machines failed under load.
    EXPECT_GT(total_kills, kSeeds);
    EXPECT_GT(total_failures, 0u);
}
