/**
 * @file
 * Reproduces paper Table 2: validation of the classification engine.
 *
 * Workloads: 10 Hadoop jobs, 10 memcached loads, 10 webserver loads,
 * and 413 single-node benchmarks. For each, the four parallel
 * classifications run from the default 2-entries-per-row profiling
 * density, and errors are measured against noise-free exhaustive
 * characterization. The single exhaustive classification (all
 * allocation x assignment combinations in one matrix) is evaluated on
 * the same workloads for the paper's comparison columns.
 *
 * The run also folds the bits of every estimate either mode computes
 * (warm-up included) into one FNV-1a hash per mode. The inputs are
 * seeded, so the hashes are exact: `--baseline=FILE` fails the run
 * when either differs from the committed BENCH_classifier.json — the
 * CI gate that a kernel change left every estimate bit-identical.
 * Refresh the file by hand when a change to the estimates is
 * intentional.
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

#include "bench/common.hh"
#include "core/classifier.hh"
#include "stats/summary.hh"

using namespace quasar;
using workload::Workload;

namespace
{

/** FNV-1a fold over the bit patterns of estimate values. */
struct EstimateHash
{
    uint64_t h = 0xCBF29CE484222325ULL;

    void fold(uint64_t v)
    {
        h ^= v;
        h *= 0x100000001B3ULL;
    }
    template <typename Range>
    void foldAll(const Range &values)
    {
        fold(uint64_t(std::size(values)));
        for (double x : values) {
            uint64_t bits;
            std::memcpy(&bits, &x, sizeof bits);
            fold(bits);
        }
    }
    void fold(const core::WorkloadEstimate &est)
    {
        foldAll(est.scale_up_perf);
        foldAll(est.scale_out_speedup);
        foldAll(est.platform_factor);
        foldAll(est.tolerated);
        foldAll(est.caused_per_core);
        foldAll(est.cross_perf);
    }
};

/** Every estimate computed, per mode. */
struct Hashes
{
    EstimateHash parallel;
    EstimateHash exhaustive;
};

struct ErrorSet
{
    stats::Samples scale_up;
    stats::Samples scale_out;
    stats::Samples heterogeneity;
    stats::Samples interference;
    stats::Samples exhaustive; ///< pooled errors, exhaustive mode.
    double decision_seconds = 0.0;
    double exhaustive_seconds = 0.0;
    size_t count = 0;
};

/** Relative |est-true|/true, guarding tiny denominators. */
double
relErr(double est, double truth)
{
    return std::fabs(est - truth) / std::max(std::fabs(truth), 1e-9);
}

void
evaluate(const Workload &w, core::Classifier &clf,
         core::Classifier &clf_exh, const profiling::Profiler &profiler,
         const profiling::Profiler &truth_prof, stats::Rng &rng,
         Hashes &hashes, ErrorSet &out)
{
    const auto &catalog = profiler.catalog();
    auto data = profiler.profile(w, 0.0, rng);

    auto t0 = std::chrono::steady_clock::now();
    auto est = clf.classify(w, data);
    auto t1 = std::chrono::steady_clock::now();
    auto est_exh = clf_exh.classify(w, data);
    auto t2 = std::chrono::steady_clock::now();
    hashes.parallel.fold(est);
    hashes.exhaustive.fold(est_exh);
    out.decision_seconds += std::chrono::duration<double>(t1 - t0).count();
    out.exhaustive_seconds +=
        std::chrono::duration<double>(t2 - t1).count();
    ++out.count;

    stats::Rng z(1); // noise-free rows ignore it

    auto su_true = truth_prof.denseScaleUpRow(w, 0.0, z);
    for (size_t c = 0; c < su_true.size(); ++c) {
        out.scale_up.add(relErr(est.scale_up_perf[c], su_true[c]));
        out.exhaustive.add(
            relErr(est_exh.scale_up_perf[c], su_true[c]));
    }

    auto ref = profiling::Profiler::referenceConfig(
        catalog[profiler.scaleUpPlatform()], w.type);
    if (workload::isDistributed(w.type)) {
        auto so_true = truth_prof.denseScaleOutRow(w, 0.0, ref, z);
        for (size_t c = 0; c < so_true.size(); ++c) {
            double truth = so_true[c] / so_true[0];
            out.scale_out.add(
                relErr(est.scale_out_speedup[c], truth));
            out.exhaustive.add(
                relErr(est_exh.scale_out_speedup[c], truth));
        }
    }

    auto het_true = truth_prof.denseHeterogeneityRow(w, 0.0, z);
    double hn = het_true[profiler.scaleUpPlatform()];
    for (size_t c = 0; c < het_true.size(); ++c) {
        out.heterogeneity.add(
            relErr(est.platform_factor[c], het_true[c] / hn));
        out.exhaustive.add(
            relErr(est_exh.platform_factor[c], het_true[c] / hn));
    }

    auto tol_true = truth_prof.denseInterferenceRow(w, 0.0, ref);
    for (size_t c = 0; c < tol_true.size(); ++c) {
        // Tolerated intensities live in [0,1]; absolute error is the
        // natural metric (a relative error at intensity 0.05 would be
        // meaningless).
        out.interference.add(std::fabs(est.tolerated[c] - tol_true[c]));
        out.exhaustive.add(
            std::fabs(est_exh.tolerated[c] - tol_true[c]));
    }
}

void
printRow(const char *name, const ErrorSet &e)
{
    auto fmt = [](const stats::Samples &s) {
        return stats::formatErrorReport(stats::makeErrorReport(s));
    };
    std::printf("%-18s\n", name);
    std::printf("  scale-up     : %s\n", fmt(e.scale_up).c_str());
    if (e.scale_out.count())
        std::printf("  scale-out    : %s\n", fmt(e.scale_out).c_str());
    std::printf("  heterogeneity: %s\n", fmt(e.heterogeneity).c_str());
    std::printf("  interference : %s\n", fmt(e.interference).c_str());
    std::printf("  exhaustive   : %s\n", fmt(e.exhaustive).c_str());
    std::printf("  decision time: %.1f ms (4-parallel), %.1f ms "
                "(exhaustive)\n",
                1e3 * e.decision_seconds / double(e.count),
                1e3 * e.exhaustive_seconds / double(e.count));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = arg.substr(11);
    }

    bench::banner("Table 2: classification-engine validation "
                  "(avg / 90th pct / max error)");
    std::printf("(interference errors are absolute, on tolerated "
                "intensities in [0,1])\n");

    auto catalog = sim::localPlatforms();
    profiling::Profiler profiler(catalog, {});
    profiling::ProfilerConfig noise_free;
    noise_free.noise_sigma = 0.0;
    profiling::Profiler truth_prof(catalog, noise_free);

    core::ClassifierConfig cfg;
    core::Classifier clf(profiler, cfg, 7);
    core::ClassifierConfig cfg_exh = cfg;
    cfg_exh.exhaustive = true;
    core::Classifier clf_exh(profiler, cfg_exh, 7);

    workload::WorkloadFactory factory{stats::Rng(2014)};
    auto seeds = bench::standardSeeds(factory);
    std::printf("\nseeding classifier with %zu offline-profiled "
                "workloads...\n", seeds.size());
    clf.seedOffline(seeds, 0.0);
    clf_exh.seedOffline(seeds, 0.0);

    // Warm the online history as a production cluster would have
    // (every scheduled workload contributes its profiling row).
    stats::Rng rng(99);
    Hashes hashes;
    for (int i = 0; i < 150; ++i) {
        Workload w = factory.randomWorkload("warm");
        auto d = profiler.profile(w, 0.0, rng);
        hashes.parallel.fold(clf.classify(w, d));
        hashes.exhaustive.fold(clf_exh.classify(w, d));
    }

    static const char *families[] = {"spec-int", "spec-fp", "parsec",
                                     "splash2",  "minebench",
                                     "bioparallel", "specjbb", "mix"};

    ErrorSet hadoop_err;
    for (int i = 0; i < 10; ++i)
        evaluate(factory.hadoopJob("hadoop",
                                   factory.rng().uniform(1.0, 300.0)),
                 clf, clf_exh, profiler, truth_prof, rng, hashes, hadoop_err);

    ErrorSet mc_err;
    for (int i = 0; i < 10; ++i) {
        double q = factory.rng().uniform(5e4, 4e5);
        evaluate(factory.memcachedService(
                     "memcached", q, 200e-6, 60.0,
                     std::make_shared<tracegen::FlatLoad>(q)),
                 clf, clf_exh, profiler, truth_prof, rng, hashes, mc_err);
    }

    ErrorSet web_err;
    for (int i = 0; i < 10; ++i) {
        double q = factory.rng().uniform(100.0, 500.0);
        evaluate(factory.webService(
                     "webserver", q, 0.1,
                     std::make_shared<tracegen::FlatLoad>(q)),
                 clf, clf_exh, profiler, truth_prof, rng, hashes, web_err);
    }

    ErrorSet single_err;
    for (int i = 0; i < 413; ++i)
        evaluate(factory.singleNodeJob("single", families[i % 8]), clf,
                 clf_exh, profiler, truth_prof, rng, hashes, single_err);

    bench::section("results (paper Table 2 format)");
    printRow("Hadoop (10 jobs)", hadoop_err);
    printRow("memcached (10)", mc_err);
    printRow("webserver (10)", web_err);
    printRow("single-node (413)", single_err);

    std::printf("\npaper reference: avg errors < 8%% across types, max "
                "< 17%%; exhaustive slightly worse on average with a "
                "tighter max, and ~100x the decision time.\n");

    const uint64_t par = hashes.parallel.h;
    const uint64_t exh = hashes.exhaustive.h;
    std::printf("\nestimate hash: 4-parallel %016llx, exhaustive "
                "%016llx\n",
                (unsigned long long)par, (unsigned long long)exh);
    if (baseline_path.empty())
        return 0;
    std::string row = bench::baselineRow(baseline_path,
                                         {"\"parallel_hash\""});
    const uint64_t base_par = bench::rowHex(row, "parallel_hash");
    const uint64_t base_exh = bench::rowHex(row, "exhaustive_hash");
    if (par != base_par || exh != base_exh) {
        std::fprintf(stderr,
                     "FAIL: estimate hashes %016llx / %016llx differ "
                     "from %s (%016llx / %016llx): a classifier change "
                     "moved an estimate\n",
                     (unsigned long long)par, (unsigned long long)exh,
                     baseline_path.c_str(),
                     (unsigned long long)base_par,
                     (unsigned long long)base_exh);
        return 1;
    }
    std::printf("estimate-hash gate ok: both match %s\n",
                baseline_path.c_str());
    return 0;
}
