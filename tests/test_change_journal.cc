/**
 * @file
 * Edge cases of the sim::ChangeJournal and the scheduler's dirty-mode
 * cursor riding it: bounded-log compaction semantics, a laggard
 * reader whose cursor falls off the retained window (must fall back
 * to a full scan, not read stale state), cursors created mid-stream,
 * and journal-driven placement across clusters with different
 * platform catalogs (the cached platform indices must stay coherent
 * with each catalog).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "profiling/profiler.hh"
#include "sim/change_journal.hh"
#include "sim/cluster.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::Allocation;
using core::GreedyScheduler;
using core::SchedulerConfig;
using core::WorkloadEstimate;
using workload::Workload;

namespace
{

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

/** Classifier world bound to a given cluster (same idiom as the
 *  decision-path sweep tests). */
struct JournalWorld
{
    sim::Cluster cluster;
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler;
    core::Classifier clf;
    workload::WorkloadFactory factory;
    stats::Rng rng;

    explicit JournalWorld(sim::Cluster c, uint64_t seed = 11)
        : cluster(std::move(c)), profiler{cluster.catalog(), {}},
          clf{profiler, {}, 3}, factory{stats::Rng(seed)}, rng{seed + 1}
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
};

} // namespace

// ---------------------------------------------------------------------
// ChangeJournal unit semantics
// ---------------------------------------------------------------------

TEST(ChangeJournal, BoundedLogCompactsAndKeepsAbsoluteOffsets)
{
    sim::ChangeJournal j(16);
    EXPECT_EQ(j.base(), 0u);
    EXPECT_EQ(j.end(), 0u);

    for (ServerId id = 0; id < 40; ++id)
        j.note(id);

    // Compaction drops the oldest half when full, but offsets are
    // absolute and the total note count is monotone.
    EXPECT_EQ(j.totalNoted(), 40u);
    EXPECT_EQ(j.end(), 40u);
    EXPECT_GT(j.base(), 0u);
    EXPECT_LE(j.end() - j.base(), 16u);
    for (uint64_t pos = j.base(); pos < j.end(); ++pos)
        EXPECT_EQ(j.at(pos), ServerId(pos)); // ids were 0..39 in order
}

TEST(ChangeJournal, TinyCapacityIsClampedToFloor)
{
    sim::ChangeJournal j(1); // floor is 16
    for (ServerId id = 0; id < 16; ++id)
        j.note(id);
    // No compaction needed yet: all 16 retained.
    EXPECT_EQ(j.base(), 0u);
    EXPECT_EQ(j.end(), 16u);
}

TEST(ChangeJournal, RingWrapsManyTimesAgainstReferenceModel)
{
    // The ring's head/base arithmetic must agree with the dumbest
    // possible reference (a deque that drops its front half when
    // full) across many wrap-arounds and at every intermediate state.
    sim::ChangeJournal j(16);
    std::vector<ServerId> model; // retained window, oldest first
    uint64_t model_base = 0;
    for (int i = 0; i < 1000; ++i) {
        ServerId id = ServerId((i * 7) % 101);
        if (model.size() == 16) {
            model.erase(model.begin(), model.begin() + 8);
            model_base += 8;
        }
        model.push_back(id);
        j.note(id);

        ASSERT_EQ(j.base(), model_base) << "after note " << i;
        ASSERT_EQ(j.end(), model_base + model.size())
            << "after note " << i;
        for (size_t k = 0; k < model.size(); ++k)
            ASSERT_EQ(j.at(model_base + k), model[k])
                << "after note " << i << " at window pos " << k;
    }
    EXPECT_EQ(j.totalNoted(), 1000u);
}

TEST(ChangeJournal, CompactionKeepsNewestHalfExactly)
{
    sim::ChangeJournal j(32);
    for (ServerId id = 0; id < 33; ++id)
        j.note(id); // the 33rd note triggers the first compaction
    EXPECT_EQ(j.base(), 16u);
    EXPECT_EQ(j.end(), 33u);
    for (uint64_t pos = j.base(); pos < j.end(); ++pos)
        EXPECT_EQ(j.at(pos), ServerId(pos));
}

TEST(ChangeJournal, FreshReaderStartsAtEndAndMissesNothingNew)
{
    sim::ChangeJournal j(64);
    for (ServerId id = 0; id < 10; ++id)
        j.note(id);
    uint64_t cursor = j.end(); // reader created mid-stream
    j.note(77);
    j.note(78);
    std::vector<ServerId> seen;
    for (uint64_t pos = cursor; pos < j.end(); ++pos)
        seen.push_back(j.at(pos));
    EXPECT_EQ(seen, (std::vector<ServerId>{77, 78}));
}

// ---------------------------------------------------------------------
// Scheduler cursor edge cases
// ---------------------------------------------------------------------

TEST(ChangeJournal, LaggardSchedulerCursorFallsBackToFullScan)
{
    JournalWorld w(sim::Cluster::localCluster());
    SchedulerConfig dirty_cfg;     // dirty is the default
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;

    GreedyScheduler dirty(w.cluster, dirty_cfg);
    GreedyScheduler rescan(w.cluster, rescan_cfg);

    // Prime the dirty index with one decision, then commit it.
    auto [id0, est0] = w.make(w.factory.hadoopJob("warm", 40.0));
    auto a0 = dirty.allocate(w.registry.get(id0), est0, 40.0, nullptr,
                             false);
    expectSameAllocation(a0,
                         rescan.allocate(w.registry.get(id0), est0,
                                         40.0, nullptr, false),
                         "warmup");
    ASSERT_TRUE(a0.has_value());
    w.apply(id0, *a0);

    // Storm the journal far past its capacity so compaction advances
    // base() beyond the primed scheduler's cursor: every injected
    // pressure toggle bumps a server version and appends an entry.
    const uint64_t before_base = w.cluster.journal().base();
    interference::IVector poke = interference::zeroVector();
    poke[0] = 0.05;
    for (int round = 0; round < 80; ++round) {
        for (size_t s = 0; s < w.cluster.size(); ++s) {
            w.cluster.server(ServerId(s)).injectPressure(poke);
            w.cluster.server(ServerId(s)).clearInjectedPressure();
        }
    }
    ASSERT_GT(w.cluster.journal().base(), before_base)
        << "storm was not large enough to force compaction";

    // The laggard must detect base() moved past its cursor, full-scan,
    // and still pick the exact placement the legacy path picks.
    auto [id1, est1] = w.make(w.factory.hadoopJob("after-storm", 55.0));
    expectSameAllocation(dirty.allocate(w.registry.get(id1), est1, 55.0,
                                        nullptr, false),
                         rescan.allocate(w.registry.get(id1), est1,
                                         55.0, nullptr, false),
                         "laggard decision");
}

TEST(ChangeJournal, SchedulerCreatedMidStreamMatchesFullRescan)
{
    JournalWorld w(sim::Cluster::localCluster());
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;

    // Mutate the cluster before any dirty-set reader exists: place a
    // few workloads through a throwaway scheduler and degrade some
    // machines, so the journal already has history.
    {
        GreedyScheduler warm(w.cluster, rescan_cfg);
        for (int i = 0; i < 4; ++i) {
            auto [id, est] =
                w.make(w.factory.hadoopJob("pre", 20.0 + 10.0 * i));
            auto a = warm.allocate(w.registry.get(id), est,
                                   20.0 + 10.0 * i, nullptr, false);
            if (a)
                w.apply(id, *a);
        }
    }
    w.cluster.server(3).degrade(0.5);
    w.cluster.server(9).markDown();
    ASSERT_GT(w.cluster.journal().end(), 0u);

    // A dirty-set scheduler born mid-stream must prime itself (its
    // cursor starts before any retained entry) and then agree with
    // the legacy path decision-for-decision.
    GreedyScheduler dirty(w.cluster, SchedulerConfig{});
    GreedyScheduler rescan(w.cluster, rescan_cfg);
    for (int i = 0; i < 3; ++i) {
        auto [id, est] =
            w.make(w.factory.hadoopJob("mid", 30.0 + 15.0 * i));
        auto a = dirty.allocate(w.registry.get(id), est,
                                30.0 + 15.0 * i, nullptr, false);
        expectSameAllocation(a,
                             rescan.allocate(w.registry.get(id), est,
                                             30.0 + 15.0 * i, nullptr,
                                             false),
                             "mid-stream decision " + std::to_string(i));
        if (a)
            w.apply(id, *a);
    }
}

TEST(ChangeJournal, DirtySetTracksJournalAcrossDifferentCatalogs)
{
    // The platform catalog is fixed per Cluster, but the scheduler
    // caches platform indices inside its journal-fed entries — run
    // the same mutate/place loop against both testbed catalogs (10
    // vs. 14 platforms) to prove the cached indices stay coherent
    // with whichever catalog the journal's cluster actually has.
    for (int testbed = 0; testbed < 2; ++testbed) {
        JournalWorld w(testbed == 0 ? sim::Cluster::localCluster()
                                    : sim::Cluster::ec2Cluster(),
                       23 + uint64_t(testbed));
        SchedulerConfig rescan_cfg;
        rescan_cfg.full_rescan = true;
        GreedyScheduler dirty(w.cluster, SchedulerConfig{});
        GreedyScheduler rescan(w.cluster, rescan_cfg);

        for (int i = 0; i < 5; ++i) {
            // Interleave journal-visible churn with decisions.
            w.cluster.server(ServerId(size_t(i) * 3 %
                                      w.cluster.size()))
                .degrade(0.6);
            auto [id, est] =
                w.make(w.factory.hadoopJob("cat", 25.0 + 12.0 * i));
            auto a = dirty.allocate(w.registry.get(id), est,
                                    25.0 + 12.0 * i, nullptr, false);
            expectSameAllocation(
                a,
                rescan.allocate(w.registry.get(id), est,
                                25.0 + 12.0 * i, nullptr, false),
                "testbed " + std::to_string(testbed) + " decision " +
                    std::to_string(i));
            if (a)
                w.apply(id, *a);
        }
    }
}

// ---------------------------------------------------------------------
// Multi-reader cursor contract
// ---------------------------------------------------------------------

TEST(ChangeJournal, LaggardCursorAmongMultipleReadersFallsBackAlone)
{
    // Contract clause 4: one cluster's journal has several readers —
    // the manager's scheduler and the zone-spread recovery scheduler
    // each keep a cursor, and the QUASAR_VERIFY sweep reads the
    // retained window. ONE cursor falling behind a compaction must
    // full-scan and resync, while a cursor that kept up replays
    // incrementally — and both then agree with the full_rescan
    // referee decision-for-decision.
    JournalWorld w(sim::Cluster::localCluster(), 29);
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;
    GreedyScheduler laggard(w.cluster, SchedulerConfig{});
    GreedyScheduler current(w.cluster, SchedulerConfig{});
    GreedyScheduler rescan(w.cluster, rescan_cfg);

    // Prime both dirty readers.
    auto [id0, est0] = w.make(w.factory.hadoopJob("prime", 35.0));
    auto p1 = laggard.allocate(w.registry.get(id0), est0, 35.0, nullptr,
                               false);
    expectSameAllocation(p1,
                         current.allocate(w.registry.get(id0), est0,
                                          35.0, nullptr, false),
                         "prime laggard vs current");
    expectSameAllocation(p1,
                         rescan.allocate(w.registry.get(id0), est0,
                                         35.0, nullptr, false),
                         "prime vs rescan");
    ASSERT_TRUE(p1.has_value());
    w.apply(id0, *p1);

    // Storm in bursts; only `current` refreshes between bursts, so
    // its cursor rides the compactions while the laggard's falls off
    // the retained window.
    interference::IVector poke = interference::zeroVector();
    poke[0] = 0.05;
    auto [probe_id, probe] = w.make(w.factory.hadoopJob("probe", 20.0));
    (void)probe_id;
    for (int burst = 0; burst < 40; ++burst) {
        for (size_t s = 0; s < w.cluster.size(); ++s) {
            w.cluster.server(ServerId(s)).injectPressure(poke);
            w.cluster.server(ServerId(s)).clearInjectedPressure();
        }
        // Read-only probe: keeps current's cursor at end() without
        // mutating the cluster.
        current.rankedCandidates(probe);
    }

    auto [id1, est1] = w.make(w.factory.hadoopJob("decide", 45.0));
    auto want = rescan.allocate(w.registry.get(id1), est1, 45.0,
                                nullptr, false);
    expectSameAllocation(laggard.allocate(w.registry.get(id1), est1,
                                          45.0, nullptr, false),
                         want, "laggard after compaction");
    expectSameAllocation(current.allocate(w.registry.get(id1), est1,
                                          45.0, nullptr, false),
                         want, "current reader after compaction");
}
