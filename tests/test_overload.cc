/**
 * @file
 * Overload control & graceful degradation (core/overload.hh): the
 * detector state machine (hysteresis, dwell, no-flap), priority-aware
 * defer/shed gating, brownout apply/restore, PI anti-windup, the
 * admission aging guard (flash crowd + idle drains the queue), and
 * the replay contract — bit-identical shedding/scaling decisions
 * across scheduler modes and re-replays over a seed sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "churn/churn.hh"
#include "core/manager.hh"
#include "core/overload.hh"
#include "driver/scenario.hh"
#include "tracegen/load_pattern.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::OverloadConfig;
using core::OverloadState;
using workload::Workload;

namespace
{

/** Overload config with thresholds small test clusters can reach. */
OverloadConfig
testOverloadConfig()
{
    OverloadConfig oc;
    oc.enabled = true;
    oc.util_pressured = 0.85;
    oc.util_overloaded = 0.97;
    oc.depth_pressured = 2;
    oc.depth_overloaded = 4;
    oc.min_dwell_s = 20.0;
    oc.defer_base_s = 10.0;
    oc.defer_max_s = 40.0;
    oc.shed_deadline_s = 1e6; // most tests never shed
    oc.aging_limit_s = 100.0;
    return oc;
}

struct World
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarManager mgr;
    driver::ScenarioDriver drv;
    workload::WorkloadFactory factory{stats::Rng(2024)};

    explicit World(core::QuasarConfig cfg = {})
        : mgr(cluster, registry, cfg),
          drv(cluster, registry, mgr,
              driver::DriverConfig{.tick_s = 10.0})
    {
        workload::WorkloadFactory seeder{stats::Rng(4242)};
        mgr.seedOffline(seeder, 20);
    }

    WorkloadId submit(Workload w, double t)
    {
        WorkloadId id = registry.add(std::move(w));
        drv.addArrival(id, t);
        return id;
    }

    /** Fill the cluster with relaxed-target analytics jobs. */
    std::vector<WorkloadId> fillWithAnalytics(size_t n, double t)
    {
        std::vector<WorkloadId> ids;
        for (size_t i = 0; i < n; ++i) {
            Workload job = factory.hadoopJob(
                "fill-" + std::to_string(i), 40.0);
            job.target =
                workload::WorkloadFactory::defaultAnalyticsTarget(
                    job, cluster.catalog()[9], 4);
            ids.push_back(submit(std::move(job), t + double(i)));
        }
        return ids;
    }
};

} // namespace

// ---------------------------------------------------------------
// Detector state machine
// ---------------------------------------------------------------

TEST(OverloadDetector, UpgradesImmediatelyEvenSkippingLevels)
{
    core::OverloadDetector det(testOverloadConfig());
    EXPECT_EQ(det.state(), OverloadState::Normal);
    // One bad sample jumps straight Normal -> Overloaded.
    EXPECT_EQ(det.update(0.0, 0.99, 0), OverloadState::Overloaded);
    EXPECT_EQ(det.transitions(), 1u);
}

TEST(OverloadDetector, HysteresisBandPreventsFlapping)
{
    OverloadConfig oc = testOverloadConfig();
    core::OverloadDetector det(oc);
    det.update(0.0, 0.99, 0); // -> Overloaded
    // Hover just below the entry threshold but inside the exit band
    // (exit needs util < 0.97 * 0.9 = 0.873): dwell long since
    // elapsed, yet the state must hold with zero extra transitions.
    for (int i = 1; i <= 50; ++i)
        EXPECT_EQ(det.update(double(i) * 10.0, 0.90, 0),
                  OverloadState::Overloaded);
    EXPECT_EQ(det.transitions(), 1u);
}

TEST(OverloadDetector, DowngradesOneLevelPerUpdateAfterDwell)
{
    OverloadConfig oc = testOverloadConfig();
    core::OverloadDetector det(oc);
    det.update(0.0, 0.99, 0); // -> Overloaded
    // Metrics collapse, but the downgrade is conservative: one level
    // per update, each gated on min_dwell in the current state.
    EXPECT_EQ(det.update(5.0, 0.1, 0), OverloadState::Overloaded)
        << "dwell 5s < 20s must hold the state";
    EXPECT_EQ(det.update(25.0, 0.1, 0), OverloadState::Pressured);
    EXPECT_EQ(det.update(35.0, 0.1, 0), OverloadState::Pressured)
        << "dwell restarts per state";
    EXPECT_EQ(det.update(50.0, 0.1, 0), OverloadState::Normal);
    EXPECT_EQ(det.transitions(), 3u);
    // Time-in-state accounting covers the whole observed window.
    const stats::StateDwell &dw = det.dwell();
    double total = dw.secondsIn(0) + dw.secondsIn(1) + dw.secondsIn(2);
    EXPECT_NEAR(total, 50.0, 1e-9);
    EXPECT_NEAR(dw.secondsIn(size_t(OverloadState::Overloaded)), 25.0,
                1e-9);
}

TEST(OverloadDetector, DepthProbeAloneTriggers)
{
    core::OverloadDetector det(testOverloadConfig());
    EXPECT_EQ(det.update(0.0, 0.1, 3), OverloadState::Pressured);
    EXPECT_EQ(det.update(10.0, 0.1, 9), OverloadState::Overloaded);
}

// ---------------------------------------------------------------
// Defer / shed gating policy
// ---------------------------------------------------------------

TEST(OverloadController, ShedFirstPriorityOrdering)
{
    OverloadConfig oc = testOverloadConfig();
    oc.shed_deadline_s = 100.0;
    core::OverloadController ctl(oc);

    Workload be;
    be.type = workload::WorkloadType::SingleNode;
    be.best_effort = true;
    Workload batch;
    batch.type = workload::WorkloadType::SingleNode;
    Workload svc;
    svc.type = workload::WorkloadType::LatencyService;

    ctl.observe(0.0, 0.90, 0); // Pressured
    EXPECT_TRUE(ctl.shouldDefer(be));
    EXPECT_FALSE(ctl.shouldDefer(batch))
        << "primary batch is only gated while Overloaded";
    EXPECT_FALSE(ctl.shouldDefer(svc));
    EXPECT_FALSE(ctl.shouldShed(be, 1e9))
        << "shedding requires Overloaded, not just Pressured";

    ctl.observe(10.0, 0.99, 0); // Overloaded
    EXPECT_TRUE(ctl.shouldDefer(be));
    EXPECT_TRUE(ctl.shouldDefer(batch));
    EXPECT_FALSE(ctl.shouldDefer(svc));
    // Deadline-aware shed: best-effort at the deadline, batch at
    // twice the deadline, services never.
    EXPECT_FALSE(ctl.shouldShed(be, 99.0));
    EXPECT_TRUE(ctl.shouldShed(be, 100.0));
    EXPECT_FALSE(ctl.shouldShed(batch, 150.0));
    EXPECT_TRUE(ctl.shouldShed(batch, 200.0));
    EXPECT_FALSE(ctl.shouldShed(svc, 1e9));
    EXPECT_FALSE(ctl.shouldShed(be, -1.0))
        << "unknown queue age must never shed";
}

// ---------------------------------------------------------------
// Scaling policies
// ---------------------------------------------------------------

TEST(ScalingPolicy, ReactiveStepsTowardSetpointAndClamps)
{
    OverloadConfig oc;
    core::ReactiveStepPolicy p(oc);
    double b = 1.0;
    b = p.update(0.5, 30.0, b);
    EXPECT_DOUBLE_EQ(b, 1.25);
    b = p.update(0.01, 30.0, b); // inside deadband: hold
    EXPECT_DOUBLE_EQ(b, 1.25);
    for (int i = 0; i < 20; ++i)
        b = p.update(1.0, 30.0, b);
    EXPECT_DOUBLE_EQ(b, oc.boost_max);
    b = p.update(-1.0, 30.0, b);
    EXPECT_DOUBLE_EQ(b, oc.boost_max - oc.reactive_step);
}

TEST(ScalingPolicy, PiAntiWindupRecoversImmediately)
{
    OverloadConfig oc; // kp=0.8 ki=0.05 boost_max=3
    core::PiPolicy pi(oc);
    double b = 1.0;
    // A long saturation episode: huge persistent error. The output
    // rails at boost_max and the conditional integration must freeze
    // the integral at the reachable range instead of winding up
    // (naive integration would accumulate ki*e*dt = 3.0 per step).
    for (int i = 0; i < 50; ++i)
        b = pi.update(2.0, 30.0, b);
    EXPECT_DOUBLE_EQ(b, oc.boost_max);
    EXPECT_LE(pi.integral(), oc.boost_max - 1.0 + 1e-12);
    // The moment the error reverses, the output must leave the rail
    // in ONE step — that is the whole point of anti-windup.
    double recovered = pi.update(-1.0, 30.0, b);
    EXPECT_LT(recovered, oc.boost_max);
}

TEST(ScalingPolicy, FactoryHonorsKind)
{
    OverloadConfig oc;
    oc.policy = core::ScalingPolicyKind::None;
    EXPECT_EQ(core::makeScalingPolicy(oc), nullptr);
    oc.policy = core::ScalingPolicyKind::Reactive;
    EXPECT_NE(dynamic_cast<core::ReactiveStepPolicy *>(
                  core::makeScalingPolicy(oc).get()),
              nullptr);
    oc.policy = core::ScalingPolicyKind::Pi;
    EXPECT_NE(dynamic_cast<core::PiPolicy *>(
                  core::makeScalingPolicy(oc).get()),
              nullptr);
}

// ---------------------------------------------------------------
// Admission aging guard
// ---------------------------------------------------------------

TEST(AdmissionQueue, AgingGuardOverridesBackoffTimer)
{
    core::AdmissionQueue q;
    q.setAgingLimit(30.0);
    q.enqueueWithBackoff(7, 0.0, 100.0, 400.0); // not_before = 100
    EXPECT_DOUBLE_EQ(q.enqueuedAt(7), 0.0);
    EXPECT_TRUE(q.drainForRetry(10.0).empty())
        << "younger than the age limit: backoff timer rules";
    auto due = q.drainForRetry(50.0);
    ASSERT_EQ(due.size(), 1u) << "age 50 >= limit 30 forces the retry";
    EXPECT_EQ(due[0], WorkloadId(7));
    EXPECT_DOUBLE_EQ(q.enqueuedAt(7), 0.0)
        << "mid-retry entries keep their wait start";
}

// ---------------------------------------------------------------
// End-to-end: shedding, accounting, brownout, queue drain
// ---------------------------------------------------------------

TEST(OverloadE2E, ShedsBestEffortFirstAndAccountsEveryArrival)
{
    core::QuasarConfig cfg;
    cfg.overload = testOverloadConfig();
    cfg.overload.shed_deadline_s = 60.0;
    cfg.overload.aging_limit_s = 1e6; // isolate the shed path
    World w(cfg);

    // Saturate: relaxed-target analytics reserve the whole cluster
    // (primaries are placed "as close as possible", grabbing every
    // core), so the utilization probe trips Overloaded; later
    // best-effort and batch arrivals are deferred into the queue and
    // age toward their shed deadlines.
    auto fill = w.fillWithAnalytics(24, 1.0);
    std::vector<WorkloadId> be_ids, batch_ids;
    for (int i = 0; i < 6; ++i)
        be_ids.push_back(
            w.submit(w.factory.bestEffortJob("be-" + std::to_string(i)),
                     60.0));
    for (int i = 0; i < 3; ++i)
        batch_ids.push_back(w.submit(
            w.factory.singleNodeJob("batch-" + std::to_string(i),
                                    "parsec"),
            60.0));
    w.drv.run(400.0);

    const core::QuasarStats &st = w.mgr.stats();
    ASSERT_GE(st.shed, be_ids.size())
        << "queued best-effort work past the deadline must shed";
    EXPECT_GE(st.overload_deferred, 1u);
    EXPECT_GE(w.mgr.overload().fractionIn(OverloadState::Overloaded),
              0.1);

    // Shed-first ordering between the two groups that queued at the
    // same instant (t=60): every best-effort shed strictly precedes
    // every primary-batch shed (deadline vs 2x deadline). Fill jobs
    // that failed placement outright queued earlier and shed on their
    // own 2x clock, so they are excluded from the ordering check.
    double last_be_shed = -1.0, first_batch_shed = 1e18;
    for (WorkloadId id : be_ids) {
        const Workload &j = w.registry.get(id);
        if (j.shed)
            last_be_shed = std::max(last_be_shed, j.completion_time);
    }
    for (WorkloadId id : batch_ids) {
        const Workload &j = w.registry.get(id);
        if (j.shed) {
            first_batch_shed =
                std::min(first_batch_shed, j.completion_time);
        }
    }
    if (last_be_shed >= 0.0 && first_batch_shed < 1e18) {
        EXPECT_LT(last_be_shed, first_batch_shed);
    }

    // Every arrival ends admitted, completed, or accounted-shed; the
    // per-workload shed flags must sum exactly to the stats counter
    // (nothing double-counted, nothing lost).
    size_t shed = 0, terminal_or_active = 0;
    std::vector<WorkloadId> all = be_ids;
    all.insert(all.end(), batch_ids.begin(), batch_ids.end());
    all.insert(all.end(), fill.begin(), fill.end());
    for (WorkloadId id : all) {
        const Workload &j = w.registry.get(id);
        switch (driver::outcomeOf(j)) {
        case driver::WorkloadOutcome::Shed:
            ++shed;
            EXPECT_TRUE(j.killed) << "shed must imply killed";
            ++terminal_or_active;
            break;
        case driver::WorkloadOutcome::Completed:
        case driver::WorkloadOutcome::Departed:
        case driver::WorkloadOutcome::Active:
            ++terminal_or_active;
            break;
        }
    }
    EXPECT_EQ(shed, st.shed);
    EXPECT_EQ(terminal_or_active, all.size());
}

TEST(OverloadE2E, BrownoutDegradesAndRestoresBestEffort)
{
    core::QuasarConfig cfg;
    cfg.overload = testOverloadConfig();
    World w(cfg);

    // A best-effort analytics job placed on the empty cluster gets a
    // multi-core allocation — the brownout victim. The flood below is
    // all best-effort too: best-effort placements never evict other
    // best-effort work (may_evict is !best_effort), so the victim
    // stays placed and only the controller ever touches its shares.
    Workload be = w.factory.hadoopJob("be-victim", 600.0);
    be.target = workload::WorkloadFactory::defaultAnalyticsTarget(
        be, w.cluster.catalog()[9], 6);
    be.best_effort = true;
    WorkloadId victim = w.submit(std::move(be), 1.0);

    w.drv.run(30.0);
    {
        const Workload &v = w.registry.get(victim);
        ASSERT_FALSE(v.brownout_active);
        ASSERT_FALSE(w.cluster.serversHosting(victim).empty());
        int cores = 0;
        for (ServerId sid : w.cluster.serversHosting(victim))
            cores += w.cluster.server(sid).share(victim)->cores;
        ASSERT_GT(cores, int(w.cluster.serversHosting(victim).size()))
            << "victim must hold >1 core somewhere for the test to "
               "mean anything";
    }

    // Best-effort flood: enough filler to reserve the cluster and
    // pile the rest into the admission queue, tripping Overloaded on
    // both probes. The placed victim is browned out to brownout_cores
    // per share.
    std::vector<WorkloadId> fill;
    for (int i = 0; i < 300; ++i)
        fill.push_back(
            w.submit(w.factory.bestEffortJob("q-" + std::to_string(i)),
                     40.0));
    w.drv.run(140.0);
    {
        const Workload &v = w.registry.get(victim);
        ASSERT_TRUE(v.brownout_active);
        EXPECT_TRUE(v.brownout_ever);
        EXPECT_GE(w.mgr.stats().brownouts, 1u);
        for (ServerId sid : w.cluster.serversHosting(victim))
            EXPECT_EQ(w.cluster.server(sid).share(victim)->cores,
                      cfg.overload.brownout_cores);
    }

    // Pressure clears: the flood departs (placed and queued alike),
    // the queue drains, the detector dwells its way back to Normal,
    // and the controller restores the saved allocation.
    for (WorkloadId id : fill)
        w.drv.killWorkload(id, 150.0);
    w.drv.run(600.0);
    {
        const Workload &v = w.registry.get(victim);
        ASSERT_FALSE(v.completed) << "victim should still be running";
        ASSERT_FALSE(v.killed);
        EXPECT_FALSE(v.brownout_active);
        EXPECT_GE(w.mgr.stats().brownout_restores, 1u);
        int cores = 0;
        for (ServerId sid : w.cluster.serversHosting(victim))
            cores += w.cluster.server(sid).share(victim)->cores;
        EXPECT_GT(cores, int(w.cluster.serversHosting(victim).size()));
        EXPECT_EQ(w.mgr.overload().state(), OverloadState::Normal);
        EXPECT_TRUE(w.mgr.admission().empty());
    }
}

TEST(OverloadE2E, FlashCrowdThenIdleDrainsQueueToEmpty)
{
    core::QuasarConfig cfg;
    cfg.overload = testOverloadConfig();
    World w(cfg);

    // Flash crowd: saturate, then a burst of best-effort arrivals
    // that all queue behind the saturated cluster.
    auto fill = w.fillWithAnalytics(24, 1.0);
    std::vector<WorkloadId> burst;
    for (int i = 0; i < 8; ++i)
        burst.push_back(
            w.submit(w.factory.bestEffortJob("fc-" + std::to_string(i)),
                     40.0));
    w.drv.run(100.0);
    EXPECT_GE(w.mgr.admission().size(), 1u);

    // The crowd passes (fill departs) and no new work arrives: the
    // aging guard must walk every deferred entry back through a real
    // scheduling attempt — the queue drains to EMPTY, nothing
    // starves in backoff forever.
    for (WorkloadId id : fill)
        w.drv.killWorkload(id, 110.0);
    w.drv.run(900.0);
    EXPECT_TRUE(w.mgr.admission().empty())
        << "idle cluster with queued work means starvation";
    for (WorkloadId id : burst) {
        const Workload &j = w.registry.get(id);
        bool running = !w.cluster.serversHosting(id).empty();
        EXPECT_TRUE(j.completed || j.shed || running)
            << "burst job " << id << " neither ran nor was accounted";
    }
    EXPECT_EQ(w.mgr.overload().state(), OverloadState::Normal);
}

TEST(OverloadE2E, AutoscalerBoostsUnderperformingService)
{
    core::QuasarConfig cfg;
    cfg.overload = testOverloadConfig();
    cfg.overload.scale_interval_s = 20.0;
    World w(cfg);

    auto load = std::make_shared<tracegen::FluctuatingLoad>(
        250.0, 50.0, 3600.0);
    Workload svc = w.factory.webService("svc", 300.0, 0.1, load);
    WorkloadId id = w.submit(std::move(svc), 1.0);
    w.drv.run(600.0);

    EXPECT_GE(w.mgr.stats().autoscale_updates, 1u);
    // The boost stays inside the configured clamp and the service
    // keeps its placement.
    double boost = w.mgr.overload().boostFor(id);
    EXPECT_GE(boost, cfg.overload.boost_min);
    EXPECT_LE(boost, cfg.overload.boost_max);
    EXPECT_FALSE(w.cluster.serversHosting(id).empty());
}

// ---------------------------------------------------------------
// Replay contract: decisions bit-identical across modes and seeds
// ---------------------------------------------------------------

namespace
{

struct ReplayResult
{
    uint64_t placement_hash = 0xCBF29CE484222325ULL;
    uint64_t decision_hash = 0;
    size_t shed = 0;
    size_t deferred = 0;
    size_t arrivals = 0;
    size_t accounted = 0; ///< completed + departed + shed + active.
};

void
foldCluster(const sim::Cluster &cluster, uint64_t &h)
{
    auto fold = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ULL;
    };
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        fold(uint64_t(s) << 32 | uint64_t(srv.coresAllocated()));
        for (const sim::TaskShare &t : srv.tasks()) {
            fold(uint64_t(t.workload));
            fold(uint64_t(t.cores));
        }
    }
}

/** One seeded churn run with overload control on, in one mode. */
ReplayResult
replayRun(uint64_t seed, bool full_rescan)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;

    core::QuasarConfig cfg;
    cfg.seed = 99;
    cfg.scheduler.full_rescan = full_rescan;
    cfg.overload = testOverloadConfig();
    cfg.overload.depth_pressured = 4;
    cfg.overload.depth_overloaded = 8;
    cfg.overload.shed_deadline_s = 60.0;
    cfg.overload.min_dwell_s = 20.0;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);

    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});

    churn::ChurnConfig ccfg;
    ccfg.seed = seed;
    ccfg.arrival_rate_per_s = 0.2;
    ccfg.horizon_s = 300.0;
    ccfg.mix = {0.35, 0.15, 0.15, 0.35};
    // Diurnal swell + flash crowd, as a unit-rate multiplier.
    ccfg.rate_pattern = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.6},
                                               {90.0, 1.0},
                                               {140.0, 6.0},
                                               {200.0, 6.0},
                                               {240.0, 0.8},
                                               {300.0, 0.8}});
    churn::ChurnEngine churn_engine(ccfg);
    churn_engine.install(cluster, registry, drv);

    ReplayResult r;
    drv.setTickHook(
        [&](double) { foldCluster(cluster, r.placement_hash); });
    drv.run(ccfg.horizon_s);

    r.decision_hash = mgr.overload().decisionHash();
    r.shed = mgr.stats().shed;
    r.deferred = mgr.stats().overload_deferred;
    r.arrivals = churn_engine.plan().size();
    // Every arrival ends in exactly one outcome bucket; their sum is
    // the arrival count ("no workload is ever lost"), shed implies
    // killed, and the stats counter matches the per-workload flags.
    size_t shed_flags = 0;
    for (const churn::ChurnItem &item : churn_engine.plan()) {
        const Workload &j = registry.get(item.id);
        switch (driver::outcomeOf(j)) {
        case driver::WorkloadOutcome::Shed:
            ++shed_flags;
            EXPECT_TRUE(j.killed) << "shed must be terminal";
            [[fallthrough]];
        case driver::WorkloadOutcome::Completed:
        case driver::WorkloadOutcome::Departed:
        case driver::WorkloadOutcome::Active:
            ++r.accounted;
            break;
        }
    }
    EXPECT_EQ(shed_flags, r.shed);
    return r;
}

} // namespace

TEST(OverloadReplay, DecisionsBitIdenticalAcrossModesAndReplays)
{
    // 20-seed sweep x {dirty, full_rescan} x re-replay: the
    // shedding/scaling decision hash and the placement hash must be
    // bit-identical everywhere — the replay contract of DESIGN.md.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        ReplayResult base = replayRun(1000 + seed, false);
        ReplayResult rescan = replayRun(1000 + seed, true);
        ReplayResult again = replayRun(1000 + seed, false);

        EXPECT_EQ(base.placement_hash, rescan.placement_hash)
            << "seed " << seed << ": dirty vs full_rescan placements";
        EXPECT_EQ(base.placement_hash, again.placement_hash)
            << "seed " << seed << ": re-replay placements";
        EXPECT_EQ(base.decision_hash, rescan.decision_hash)
            << "seed " << seed << ": dirty vs full_rescan decisions";
        EXPECT_EQ(base.decision_hash, again.decision_hash)
            << "seed " << seed << ": re-replay decisions";
        EXPECT_EQ(base.shed, rescan.shed);
        EXPECT_EQ(base.deferred, rescan.deferred);
        EXPECT_EQ(base.accounted, base.arrivals);
    }
}

TEST(OverloadReplay, DisabledControllerLeavesDecisionsUntouched)
{
    // The master switch must be a true no-op: identical placements
    // with and without the overload module compiled into the path,
    // and a decision hash equal to the FNV-1a offset basis (nothing
    // ever folded).
    auto run = [](bool enabled) {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        core::QuasarConfig cfg;
        cfg.overload.enabled = enabled;
        cfg.overload.depth_pressured = 1; // aggressive when enabled
        cfg.overload.depth_overloaded = 2;
        core::QuasarManager mgr(cluster, registry, cfg);
        workload::WorkloadFactory seeder{stats::Rng(4242)};
        mgr.seedOffline(seeder, 16);
        driver::ScenarioDriver drv(
            cluster, registry, mgr,
            driver::DriverConfig{.tick_s = 10.0});
        churn::ChurnConfig ccfg;
        ccfg.seed = 7;
        ccfg.arrival_rate_per_s = 0.1;
        ccfg.horizon_s = 300.0;
        churn::ChurnEngine eng(ccfg);
        eng.install(cluster, registry, drv);
        uint64_t h = 0xCBF29CE484222325ULL;
        drv.setTickHook([&](double) { foldCluster(cluster, h); });
        drv.run(ccfg.horizon_s);
        return std::make_pair(h, mgr.overload().decisionHash());
    };
    auto off = run(false);
    EXPECT_EQ(off.second, 0xCBF29CE484222325ULL);
    // An enabled controller on a light stream that never pressures
    // the cluster is not required to match; only off must be inert.
    // (The placement hash of the off run is the legacy behavior.)
    auto off2 = run(false);
    EXPECT_EQ(off.first, off2.first);
}
