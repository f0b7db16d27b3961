/**
 * @file
 * Google-benchmark microbenchmarks for the decision-path latencies the
 * paper reports (Secs. 3.2-3.4, 6.5): SVD and PQ-reconstruction on
 * classification-sized matrices, fold-in of a new workload row, the
 * four parallel classifications vs the exhaustive one, greedy
 * allocation on 40-, 200- and 1000-server clusters, and the
 * performance oracle used by monitoring.
 *
 * Decision-path mode (`--decision-path`): sweeps cluster size over
 * 40 / 200 / 1000 servers, drives an identical placement stream
 * through the incremental-index scheduler and the full_rescan legacy
 * path, verifies both picked identical placements, and emits
 * BENCH_decision_path.json. With `--baseline=FILE` the run fails if
 * the 200-server incremental mean regressed more than
 * `--max-regression` (default 0.25) against the recorded baseline —
 * the CI perf gate.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hh"
#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "linalg/pq_model.hh"
#include "linalg/svd.hh"

using namespace quasar;

namespace
{

linalg::Matrix
randomMatrix(size_t m, size_t n, uint64_t seed)
{
    stats::Rng rng(seed);
    linalg::Matrix a(m, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            a.at(i, j) = rng.normal(0.0, 1.0);
    return a;
}

/** Shared fixture state built once. */
struct Fixture
{
    std::vector<sim::Platform> catalog = sim::localPlatforms();
    profiling::Profiler profiler{catalog, {}};
    core::Classifier clf{profiler, {}, 7};
    core::Classifier clf_exh;
    workload::WorkloadFactory factory{stats::Rng(7777)};
    stats::Rng rng{888};

    Fixture()
        : clf_exh(profiler,
                  [] {
                      core::ClassifierConfig c;
                      c.exhaustive = true;
                      return c;
                  }(),
                  7)
    {
        auto seeds = bench::standardSeeds(factory, 4);
        clf.seedOffline(seeds, 0.0);
        clf_exh.seedOffline(seeds, 0.0);
        for (int i = 0; i < 60; ++i) {
            workload::Workload w = factory.randomWorkload("warm");
            auto d = profiler.profile(w, 0.0, rng);
            clf.classify(w, d);
            clf_exh.classify(w, d);
        }
    }

    static Fixture &get()
    {
        static Fixture f;
        return f;
    }
};

} // namespace

static void
BM_SvdJacobi(benchmark::State &state)
{
    auto a = randomMatrix(60, size_t(state.range(0)), 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::svd(a, 8));
}
BENCHMARK(BM_SvdJacobi)->Arg(16)->Arg(32)->Arg(64);

static void
BM_RandomizedSvd(benchmark::State &state)
{
    auto a = randomMatrix(300, size_t(state.range(0)), 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::randomizedSvd(a, 8));
}
BENCHMARK(BM_RandomizedSvd)->Arg(64)->Arg(256)->Arg(1024);

static void
BM_PqFit(benchmark::State &state)
{
    stats::Rng rng(5);
    size_t rows = size_t(state.range(0));
    linalg::MaskedMatrix m(rows, 56);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < 56; ++c)
            if (r < 30 || rng.chance(0.05))
                m.set(r, c, rng.normal(1.0, 0.5));
    for (auto _ : state) {
        linalg::PqModel model;
        model.fit(m);
        benchmark::DoNotOptimize(model.trainRmse());
    }
}
BENCHMARK(BM_PqFit)->Arg(50)->Arg(150)->Arg(400);

static void
BM_FoldInRow(benchmark::State &state)
{
    stats::Rng rng(6);
    linalg::MaskedMatrix m(120, 56);
    for (size_t r = 0; r < 120; ++r)
        for (size_t c = 0; c < 56; ++c)
            if (r < 30 || rng.chance(0.06))
                m.set(r, c, rng.normal(1.0, 0.5));
    linalg::PqModel model;
    model.fit(m);
    std::vector<std::pair<size_t, double>> obs = {{3, 1.2}, {40, 0.8}};
    for (auto _ : state)
        benchmark::DoNotOptimize(model.foldInRow(obs));
}
BENCHMARK(BM_FoldInRow);

static void
BM_Classify4Parallel(benchmark::State &state)
{
    Fixture &f = Fixture::get();
    workload::Workload w =
        f.factory.hadoopJob("bench", 50.0);
    auto data = f.profiler.profile(w, 0.0, f.rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.clf.classify(w, data));
}
BENCHMARK(BM_Classify4Parallel);

static void
BM_ClassifyExhaustive(benchmark::State &state)
{
    Fixture &f = Fixture::get();
    workload::Workload w =
        f.factory.hadoopJob("bench", 50.0);
    auto data = f.profiler.profile(w, 0.0, f.rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.clf_exh.classify(w, data));
}
BENCHMARK(BM_ClassifyExhaustive);

static void
BM_GreedyAllocate(benchmark::State &state)
{
    // Profiler/classifier anchored on the *cluster's* catalog: the
    // estimate's platform-factor vector must have one entry per
    // catalog platform or ranking reads past its end.
    sim::Cluster cluster = bench::clusterOfSize(int(state.range(0)));
    profiling::Profiler profiler(cluster.catalog(), {});
    core::Classifier clf(profiler, {}, 7);
    workload::WorkloadFactory factory{stats::Rng(7777)};
    clf.seedOffline(bench::standardSeeds(factory, 2), 0.0);
    stats::Rng rng(888);
    core::GreedyScheduler sched(cluster);
    workload::Workload w = factory.hadoopJob("bench", 50.0);
    w.id = 1;
    auto data = profiler.profile(w, 0.0, rng);
    auto est = clf.classify(w, data);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sched.allocate(w, est, w.total_work / 600.0, nullptr,
                           true));
}
BENCHMARK(BM_GreedyAllocate)->Arg(40)->Arg(200)->Arg(1000);

static void
BM_OracleCurrentRate(benchmark::State &state)
{
    Fixture &f = Fixture::get();
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::GreedyScheduler sched(cluster);
    workload::Workload tmp = f.factory.hadoopJob("bench", 50.0);
    WorkloadId id = registry.add(tmp);
    workload::Workload &w = registry.get(id);
    auto data = f.profiler.profile(w, 0.0, f.rng);
    auto est = f.clf.classify(w, data);
    auto alloc = sched.allocate(w, est, w.total_work / 600.0, nullptr,
                                true);
    for (const auto &node : alloc->nodes) {
        sim::TaskShare share;
        share.workload = id;
        share.cores = node.cores;
        share.memory_gb = node.memory_gb;
        share.caused = w.causedPressure(0.0, node.cores);
        cluster.server(node.server).place(share);
    }
    workload::PerfOracle oracle(cluster, registry);
    for (auto _ : state)
        benchmark::DoNotOptimize(oracle.currentRate(w, 0.0));
}
BENCHMARK(BM_OracleCurrentRate);

// ---------------------------------------------------------------------------
// Decision-path mode: incremental index vs full_rescan, JSON + CI gate.
// ---------------------------------------------------------------------------

namespace
{

/** One workload ready to place: classified against the right catalog. */
struct StreamEntry
{
    workload::Workload w;
    core::WorkloadEstimate est;
};

/**
 * A deterministic stream of classified batch jobs. Classification
 * mutates the classifier's online history, so the stream is built
 * once per cluster size and replayed identically through both
 * decision paths.
 */
std::vector<StreamEntry>
makeStream(const std::vector<sim::Platform> &catalog, size_t n,
           uint64_t seed)
{
    profiling::Profiler profiler(catalog, {});
    core::Classifier clf(profiler, {}, seed);
    workload::WorkloadFactory factory{stats::Rng(seed ^ 0xBEEF)};
    clf.seedOffline(bench::standardSeeds(factory, 2), 0.0);
    stats::Rng rng(seed ^ 0xF00D);
    std::vector<StreamEntry> stream;
    stream.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        workload::Workload w =
            factory.hadoopJob("dp", rng.uniform(20.0, 120.0));
        w.id = WorkloadId(1 + i);
        auto data = profiler.profile(w, 0.0, rng);
        auto est = clf.classify(w, data);
        stream.push_back({std::move(w), std::move(est)});
    }
    return stream;
}

/**
 * Pre-populate ~2/3 of the servers with best-effort residents so the
 * contention ledgers are non-trivial and eviction planning runs — the
 * production-density shape the full_rescan path pays for per
 * placement.
 */
void
prepopulate(sim::Cluster &cluster, const workload::Workload &be)
{
    for (size_t i = 0; i < cluster.size(); ++i) {
        if (i % 3 == 2)
            continue;
        sim::Server &srv = cluster.server(ServerId(i));
        int cores = std::max(1, srv.platform().cores / 4);
        double mem = srv.platform().memory_gb / 8.0;
        for (int k = 0; k < 3; ++k) {
            if (!srv.canFit(cores, mem, 0.0))
                break;
            sim::TaskShare share;
            share.workload = WorkloadId(1000000 + i * 8 + size_t(k));
            share.cores = cores;
            share.memory_gb = mem;
            share.caused = be.causedPressure(0.0, cores);
            share.best_effort = true;
            srv.place(share);
        }
    }
}

struct ModeResult
{
    double mean_s = 0.0;
    std::vector<core::Allocation> allocs;
};

/**
 * Replay the placement stream on a fresh pre-populated cluster,
 * timing only the allocate() decisions; every decision is committed
 * (evictions applied, shares placed) so later placements see the
 * churn an online manager generates.
 */
ModeResult
runMode(int servers, bool full_rescan,
        const std::vector<StreamEntry> &stream,
        const workload::Workload &be)
{
    sim::Cluster cluster = bench::clusterOfSize(servers);
    prepopulate(cluster, be);
    core::SchedulerConfig cfg;
    cfg.full_rescan = full_rescan;
    core::GreedyScheduler sched(cluster, cfg);

    ModeResult res;
    res.allocs.reserve(stream.size());
    double total = 0.0;
    for (const StreamEntry &e : stream) {
        auto t0 = std::chrono::steady_clock::now();
        auto alloc = sched.allocate(e.w, e.est, e.w.total_work / 600.0,
                                    nullptr, true);
        auto t1 = std::chrono::steady_clock::now();
        total += std::chrono::duration<double>(t1 - t0).count();
        if (alloc) {
            for (const auto &[sid, victim] : alloc->evictions)
                cluster.server(sid).remove(victim);
            for (const core::AllocationNode &node : alloc->nodes) {
                sim::TaskShare share;
                share.workload = e.w.id;
                share.cores = node.cores;
                share.memory_gb = node.memory_gb;
                share.storage_gb = e.w.storage_gb_per_node;
                share.caused = e.w.causedPressure(0.0, node.cores);
                cluster.server(node.server).place(share);
            }
            res.allocs.push_back(*alloc);
        } else {
            res.allocs.push_back({});
        }
    }
    res.mean_s = stream.empty() ? 0.0 : total / double(stream.size());
    return res;
}

/** Same placement decisions? (servers, columns, sizes, evictions) */
bool
sameDecisions(const std::vector<core::Allocation> &a,
              const std::vector<core::Allocation> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].nodes.size() != b[i].nodes.size() ||
            a[i].evictions != b[i].evictions ||
            a[i].degraded != b[i].degraded)
            return false;
        for (size_t j = 0; j < a[i].nodes.size(); ++j) {
            const auto &x = a[i].nodes[j];
            const auto &y = b[i].nodes[j];
            if (x.server != y.server || x.scale_up_col != y.scale_up_col ||
                x.cores != y.cores || x.memory_gb != y.memory_gb)
                return false;
        }
    }
    return true;
}

int
runDecisionPath(const std::string &out_path,
                const std::string &baseline_path, double max_regression)
{
    constexpr int kSizes[] = {40, 200, 1000};
    constexpr size_t kPlacements = 24;
    constexpr int kReps = 3;

    workload::WorkloadFactory factory{stats::Rng(31337)};
    workload::Workload be = factory.bestEffortJob("dp-filler");

    bench::banner("decision path: incremental index vs full_rescan");
    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"name\": \"decision_path\",\n"
                 "  \"placements\": %zu,\n  \"reps\": %d,\n"
                 "  \"clusters\": [\n",
                 kPlacements, kReps);

    bool all_identical = true;
    double mean200 = 0.0;
    for (size_t s = 0; s < 3; ++s) {
        int servers = kSizes[s];
        auto stream = makeStream(bench::clusterOfSize(servers).catalog(),
                                 kPlacements, 97 + uint64_t(servers));
        // Min-of-means over repetitions: robust to CI noise, and the
        // equivalence check runs on the first repetition's decisions.
        double inc_mean = 0.0, full_mean = 0.0;
        bool identical = true;
        for (int rep = 0; rep < kReps; ++rep) {
            ModeResult inc = runMode(servers, false, stream, be);
            ModeResult full = runMode(servers, true, stream, be);
            inc_mean = rep == 0 ? inc.mean_s
                                : std::min(inc_mean, inc.mean_s);
            full_mean = rep == 0 ? full.mean_s
                                 : std::min(full_mean, full.mean_s);
            if (rep == 0)
                identical = sameDecisions(inc.allocs, full.allocs);
        }
        all_identical = all_identical && identical;
        if (servers == 200)
            mean200 = inc_mean;
        double speedup = inc_mean > 0.0 ? full_mean / inc_mean : 0.0;
        std::printf("  %4d servers: incremental %.3f ms  full_rescan "
                    "%.3f ms  speedup %.1fx  identical=%s\n",
                    servers, inc_mean * 1e3, full_mean * 1e3, speedup,
                    identical ? "yes" : "NO");
        std::fprintf(out,
                     "    {\"servers\": %d, \"incremental_mean_s\": "
                     "%.9g, \"full_rescan_mean_s\": %.9g, \"speedup\": "
                     "%.3f, \"identical\": %s}%s\n",
                     servers, inc_mean, full_mean, speedup,
                     identical ? "true" : "false", s + 1 < 3 ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: incremental and full_rescan paths "
                             "disagreed on placements\n");
        return 1;
    }
    if (!baseline_path.empty()) {
        double base = bench::rowNumber(
            bench::baselineRow(baseline_path, {"\"servers\": 200"}),
            "incremental_mean_s");
        if (std::isnan(base)) {
            std::printf("no usable baseline at %s; skipping the "
                        "regression gate\n",
                        baseline_path.c_str());
        } else if (mean200 > base * (1.0 + max_regression)) {
            std::fprintf(stderr,
                         "FAIL: 200-server schedule-call mean %.3f ms "
                         "regressed >%.0f%% vs baseline %.3f ms\n",
                         mean200 * 1e3, max_regression * 100.0,
                         base * 1e3);
            return 1;
        } else {
            std::printf("regression gate ok: 200-server mean %.3f ms "
                        "vs baseline %.3f ms (limit +%.0f%%)\n",
                        mean200 * 1e3, base * 1e3,
                        max_regression * 100.0);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool decision_path = false;
    std::string out_path = "BENCH_decision_path.json";
    std::string baseline_path;
    double max_regression = 0.25;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--decision-path")
            decision_path = true;
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = arg.substr(11);
        else if (arg.rfind("--max-regression=", 0) == 0)
            max_regression = std::atof(arg.c_str() + 17);
    }
    if (decision_path)
        return runDecisionPath(out_path, baseline_path, max_regression);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
