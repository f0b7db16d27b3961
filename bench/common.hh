/**
 * @file
 * Shared helpers for the experiment benches: standard seed-workload
 * sets, table formatting, scenario glue, and the replay harness of
 * the stream benches (churn, trace_replay, overload, topology): the
 * placement fold, the stream runner, the leg table that cross-checks
 * replay hashes, the JSON report writer, the shared command line and
 * the committed-baseline gate. Each bench binary regenerates one
 * table or figure of the paper and prints the same rows/series the
 * paper reports.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "churn/churn.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "sim/cluster.hh"
#include "workload/factory.hh"

namespace quasar::bench
{

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n================================================="
                "=============\n%s\n"
                "=================================================="
                "============\n",
                title.c_str());
}

/** Sub-section header. */
inline void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

/**
 * The paper's testbeds plus scaled EC2 mixes: 40 servers is the local
 * cluster, 200 the EC2 cluster, and any other multiple of 200
 * replicates the EC2 per-platform counts.
 */
inline sim::Cluster
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

/**
 * The first line of a committed baseline (one JSON row per line) that
 * contains every marker; empty when the file or the row is missing.
 */
inline std::string
baselineRow(const std::string &path,
            std::initializer_list<std::string_view> markers)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        bool all = true;
        for (std::string_view m : markers)
            all = all && line.find(m) != std::string::npos;
        if (all)
            return line;
    }
    return {};
}

/** The number after `"key":` on a baseline row; NaN when absent. */
inline double
rowNumber(const std::string &row, std::string_view key)
{
    std::string tag = "\"";
    tag.append(key).append("\":");
    size_t at = row.find(tag);
    return at == std::string::npos
               ? std::nan("")
               : std::atof(row.c_str() + at + tag.size());
}

/** The hex string value of `"key": "..."` on a baseline row; 0 when
 *  absent. */
inline uint64_t
rowHex(const std::string &row, std::string_view key)
{
    std::string tag = "\"";
    tag.append(key).append("\": \"");
    size_t at = row.find(tag);
    return at == std::string::npos
               ? 0
               : std::strtoull(row.c_str() + at + tag.size(), nullptr,
                               16);
}

/**
 * The offline-characterized seed set used to anchor classification
 * (paper: 20-30 representative applications). Deterministic for a
 * given rng.
 */
inline std::vector<workload::Workload>
standardSeeds(workload::WorkloadFactory &factory, size_t per_family = 5)
{
    std::vector<workload::Workload> seeds;
    auto &rng = factory.rng();
    for (size_t i = 0; i < per_family; ++i) {
        seeds.push_back(
            factory.hadoopJob("seed-hadoop", rng.uniform(5.0, 250.0)));
        seeds.push_back(
            factory.sparkJob("seed-spark", rng.uniform(5.0, 60.0)));
        seeds.push_back(
            factory.stormJob("seed-storm", rng.uniform(2.0, 40.0)));
        double mq = rng.uniform(5e4, 3e5);
        seeds.push_back(factory.memcachedService(
            "seed-memcached", mq, 200e-6, 50.0,
            std::make_shared<tracegen::FlatLoad>(mq)));
        double wq = rng.uniform(100.0, 400.0);
        seeds.push_back(factory.webService(
            "seed-web", wq, 0.1,
            std::make_shared<tracegen::FlatLoad>(wq)));
        double cq = rng.uniform(3e3, 15e3);
        seeds.push_back(factory.cassandraService(
            "seed-cassandra", cq, 30e-3, 200.0,
            std::make_shared<tracegen::FlatLoad>(cq)));
    }
    static const char *families[] = {"spec-int", "spec-fp", "parsec",
                                     "splash2",  "minebench",
                                     "bioparallel", "specjbb", "mix"};
    for (size_t i = 0; i < per_family; ++i)
        for (const char *fam : families)
            seeds.push_back(factory.singleNodeJob("seed-single", fam));
    return seeds;
}

/**
 * The best completion time a parameter sweep finds for an analytics
 * job: the truth-optimal uniform allocation over platforms,
 * configurations, and node counts (bounded by servers available per
 * platform). The paper sets job targets this way.
 */
inline double
sweepBestCompletion(const workload::Workload &w,
                    const std::vector<sim::Platform> &catalog,
                    int servers_per_platform, int max_nodes = 12)
{
    // Best per-node rate of every server in the cluster, then the
    // best prefix of the descending ranking (mixed platforms allowed,
    // exactly what a scheduler could achieve on an idle cluster).
    std::vector<double> node_rates;
    for (const sim::Platform &p : catalog) {
        double best_node = 0.0;
        for (const workload::ScaleUpConfig &cfg :
             workload::scaleUpGrid(p, w.type))
            best_node = std::max(best_node,
                                 w.truth.nodeRateQuiet(p, cfg));
        for (int i = 0; i < servers_per_platform; ++i)
            node_rates.push_back(best_node);
    }
    std::sort(node_rates.rbegin(), node_rates.rend());
    double best_rate = 0.0;
    std::vector<double> prefix;
    for (double r : node_rates) {
        if (int(prefix.size()) >= max_nodes)
            break;
        prefix.push_back(r);
        best_rate = std::max(best_rate, w.truth.jobRate(prefix));
    }
    return w.total_work / best_rate;
}

/** @name Replay harness of the stream benches */
/// @{

/** FNV-1a offset basis: the hash of a replay that folded nothing. */
inline constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/**
 * Fold the cluster's full allocation state into a running FNV-1a:
 * per server its index and liveness (`available()`), then per task
 * `workload | socket << 48` and `cores`. Any placement difference at
 * any tick moves the final hash.
 */
inline void
foldCluster(const sim::Cluster &cluster, uint64_t &h)
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

/**
 * One row of a bench report: ordered `"key": value` members, written
 * as one JSON line both to the report (the form baselineRow,
 * rowNumber and rowHex read back) and to stdout.
 */
class Row
{
  public:
    Row &text(std::string_view key, std::string_view v)
    {
        std::string quoted = "\"";
        return put(key, quoted.append(v).append("\""));
    }
    Row &count(std::string_view key, uint64_t v)
    {
        return put(key, std::to_string(v));
    }
    Row &num(std::string_view key, double v, int digits)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", digits, v);
        return put(key, buf);
    }
    Row &hex(std::string_view key, uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "\"%016llx\"",
                      (unsigned long long)v);
        return put(key, buf);
    }
    Row &flag(std::string_view key, bool v)
    {
        return put(key, v ? "true" : "false");
    }
    Row &append(const Row &other)
    {
        members_.insert(members_.end(), other.members_.begin(),
                        other.members_.end());
        return *this;
    }

    const std::vector<std::string> &members() const { return members_; }
    /** `{"key": value, ...}` */
    std::string json() const
    {
        std::string out = "{";
        for (const std::string &m : members_)
            out.append(out.size() > 1 ? ", " : "").append(m);
        return out + "}";
    }

  private:
    Row &put(std::string_view key, const std::string &value)
    {
        std::string m = "\"";
        members_.push_back(m.append(key).append("\": ").append(value));
        return *this;
    }

    std::vector<std::string> members_;
};

/** Bench-specific fields scored after a replay, while the driver,
 *  the manager and the stream's plan are still alive. */
using AfterRun = std::function<Row(const driver::ScenarioDriver &,
                                   const core::QuasarManager &,
                                   const std::vector<churn::ChurnItem> &)>;

/**
 * Replay one open-loop stream (a churn::ChurnEngine or a
 * trace::TraceReplayer) through the full manager on a cluster of
 * `servers`: the seeded offline set, 15 s driver ticks, and a tick
 * hook that samples the admission depth and folds the cluster into
 * the placement hash. Returns the stream fields every replay bench
 * reports — throughput, admission depth, the latency services'
 * QoS-violation rate, the driver::outcomeOf split, both replay
 * hashes, the wall-clock breakdown (ms) — then `after`'s fields.
 */
template <class Stream>
Row
replayStream(int servers, double horizon_s, core::QuasarConfig qcfg,
             Stream stream, const AfterRun &after = {})
{
    sim::Cluster cluster = clusterOfSize(servers);
    workload::WorkloadRegistry registry;

    qcfg.proactive_interval_s = horizon_s / 3.0;
    core::QuasarManager mgr(cluster, registry, qcfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 15.0, .record_every = 2});
    stream.install(cluster, registry, drv);

    double depth_sum = 0.0;
    size_t depth_n = 0, depth_max = 0;
    uint64_t hash = kFnvBasis;
    drv.setTickHook([&](double) {
        size_t d = mgr.admission().size();
        depth_sum += double(d);
        ++depth_n;
        depth_max = std::max(depth_max, d);
        foldCluster(cluster, hash);
    });

    drv.run(horizon_s);

    const std::vector<churn::ChurnItem> &plan = stream.plan();
    static_assert(size_t(driver::WorkloadOutcome::Shed) == 3);
    size_t outcomes[4] = {}; // by driver::WorkloadOutcome
    size_t degraded = 0, qos_n = 0;
    double qos_sum = 0.0;
    for (const churn::ChurnItem &item : plan) {
        const workload::Workload &w = registry.get(item.id);
        ++outcomes[size_t(driver::outcomeOf(w))];
        degraded += w.brownout_ever ? 1 : 0;
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    using O = driver::WorkloadOutcome;
    const size_t completed = outcomes[size_t(O::Completed)];
    const size_t departed = outcomes[size_t(O::Departed)];
    const size_t shed = outcomes[size_t(O::Shed)];
    const double n = double(std::max<size_t>(plan.size(), 1));
    const core::QuasarStats &st = mgr.stats();
    const core::SchedulerTiming &sched = mgr.scheduler().timing();
    auto ms = [](const stats::TimerStat &t) {
        return t.meanSeconds() * 1e3;
    };
    Row row;
    row.count("arrivals", plan.size())
        .num("decisions_per_s",
             st.schedule_time.total_s > 0.0
                 ? double(st.schedule_time.count) /
                       st.schedule_time.total_s
                 : 0.0,
             1)
        .count("schedule_calls", st.schedule_time.count)
        .num("mean_admission_depth",
             depth_n ? depth_sum / double(depth_n) : 0.0, 2)
        .count("max_admission_depth", depth_max)
        .num("qos_violation_rate",
             qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0, 4)
        .count("completed", completed)
        .count("departed", departed)
        .count("shed", shed)
        .count("active", outcomes[size_t(O::Active)])
        .count("degraded", degraded)
        .num("shed_fraction", double(shed) / n, 4)
        .num("goodput_fraction", double(completed + departed) / n, 4)
        .hex("placement_hash", hash)
        .hex("decision_hash", mgr.overload().decisionHash())
        .num("classify_ms", ms(st.classify_time), 4)
        .num("profile_ms", ms(st.profile_time), 4)
        .num("schedule_ms", ms(st.schedule_time), 5)
        .num("adapt_ms", ms(st.adapt_time), 5)
        .num("rank_ms", ms(sched.rank), 5)
        .num("place_ms", ms(sched.place), 5)
        .num("tick_ms", ms(drv.tickTiming()), 4);
    return after ? row.append(after(drv, mgr, plan)) : row;
}

/** One leg of a bench: a labelled run and the leg it must reproduce. */
struct Leg
{
    /** Identity fields that lead the leg's row and select its
     *  committed baseline row. */
    Row keys;
    /** Runs the leg and returns its measured fields. */
    std::function<Row()> run;
    /** Index of an earlier leg whose placement and decision hashes
     *  this one must reproduce bit for bit; -1 for none. */
    int reproduces = -1;
};

/**
 * Run the legs in order, print one line per leg, and return each
 * leg's full row (keys, measured fields, `identical`). A leg whose
 * hashes differ from those of the leg it reproduces gets
 * `identical: false`, a FAIL line on stderr, and clears
 * `all_identical`.
 */
inline std::vector<std::string>
runLegs(const std::vector<Leg> &legs, bool &all_identical)
{
    all_identical = true;
    std::vector<std::string> rows;
    for (const Leg &leg : legs) {
        Row row = Row(leg.keys).append(leg.run());
        bool identical = true;
        if (leg.reproduces >= 0) {
            const std::string fresh = row.json();
            const std::string &ref = rows[size_t(leg.reproduces)];
            for (const char *key : {"placement_hash", "decision_hash"})
                identical = identical &&
                            rowHex(fresh, key) == rowHex(ref, key);
        }
        all_identical = all_identical && identical;
        rows.push_back(row.flag("identical", identical).json());
        std::printf("  %s\n", rows.back().c_str());
        if (!identical)
            std::fprintf(
                stderr, "FAIL: %s diverged from %s\n",
                leg.keys.json().c_str(),
                legs[size_t(leg.reproduces)].keys.json().c_str());
        std::fflush(stdout);
    }
    return rows;
}

/**
 * Write a report: the header's fields, then each named array of
 * rows, one row per line. False (with a message) when the file
 * cannot be written.
 */
inline bool
writeReport(
    const std::string &path, const Row &header,
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        &arrays)
{
    std::string text = "{\n";
    for (const std::string &m : header.members())
        text += "  " + m + ",\n";
    for (size_t a = 0; a < arrays.size(); ++a) {
        const auto &[name, rows] = arrays[a];
        text += "  \"" + name + "\": [\n";
        for (size_t i = 0; i < rows.size(); ++i)
            text += "    " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
        text += a + 1 < arrays.size() ? "  ],\n" : "  ]\n";
    }
    text += "}\n";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fputs(text.c_str(), out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** Command line of the stream benches. */
struct Args
{
    bool smoke = false;
    std::string out;
    std::string baseline;
    double max_regression = 0.0;
    std::string traces = "tests/traces";
    bool diag_gate = true;
};

/** Flags a bench takes beyond `--smoke` and `--out=`. */
enum ArgFlag : unsigned
{
    kTakesBaseline = 1u << 0, ///< --baseline= and --max-regression=
    kTakesTraces = 1u << 1,   ///< --traces=
    kTakesDiagGate = 1u << 2, ///< --no-diag-gate
};

/**
 * Parse argv over the bench's defaults (`out`, `max_regression`). A
 * flag the bench does not take (`takes` is a mask of ArgFlag), an
 * empty value or a malformed number prints usage to stderr and exits
 * with status 2.
 */
inline Args
parseArgs(int argc, char **argv, unsigned takes, std::string out,
          double max_regression = 0.0)
{
    Args args;
    args.out = std::move(out);
    args.max_regression = max_regression;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=') + 1; // 0 when there is none
        const std::string flag = arg.substr(0, eq);
        const std::string v = eq ? arg.substr(eq) : "";
        char *end = nullptr;
        bool ok = eq == 0 || !v.empty();
        if (arg == "--smoke")
            args.smoke = true;
        else if (flag == "--out=")
            args.out = v;
        else if (flag == "--baseline=" && (takes & kTakesBaseline))
            args.baseline = v;
        else if (flag == "--max-regression=" &&
                 (takes & kTakesBaseline)) {
            args.max_regression = std::strtod(v.c_str(), &end);
            ok = ok && *end == '\0';
        } else if (flag == "--traces=" && (takes & kTakesTraces))
            args.traces = v;
        else if (arg == "--no-diag-gate" && (takes & kTakesDiagGate))
            args.diag_gate = false;
        else
            ok = false;
        if (ok)
            continue;
        std::fprintf(stderr,
                     "%s: bad argument '%s'\nusage: %s [--smoke] "
                     "[--out=FILE]%s%s%s\n",
                     argv[0], arg.c_str(), argv[0],
                     takes & kTakesBaseline
                         ? " [--baseline=FILE] [--max-regression=X]"
                         : "",
                     takes & kTakesTraces ? " [--traces=DIR]" : "",
                     takes & kTakesDiagGate ? " [--no-diag-gate]" : "");
        std::exit(2);
    }
    return args;
}

/** A committed-baseline gate on one leg's row. */
struct Gate
{
    /** Hex fields that must equal the committed row's exactly. */
    std::vector<std::string> exact;
    /** The numeric field held within max_regression of the
     *  committed value. */
    std::string metric;
    /** True: higher is better, and the metric may fall by at most
     *  that fraction. False: lower is better, and it may rise by at
     *  most that absolute amount. */
    bool relative_floor = false;
};

/**
 * Gate one leg's fresh row against the committed row that begins
 * with the same identity keys. Fails, with a message, when the file
 * is unreadable, the row or a gated field is missing, an exact field
 * differs, or the metric leaves its bound.
 */
inline bool
checkBaseline(const std::string &path, const Row &keys,
              const std::string &fresh, const Gate &gate,
              double max_regression)
{
    // `{"servers": 1000, "mode": "dirty",` cannot prefix a 10000 or a
    // "dirty-rerun" row.
    std::string leg = keys.json();
    leg.back() = ',';
    const std::string committed = baselineRow(path, {leg});
    char why[160] = "";
    if (committed.empty())
        std::snprintf(why, sizeof why, "no such row (or no such file)");
    for (const std::string &key : gate.exact) {
        const uint64_t base = rowHex(committed, key);
        const uint64_t now = rowHex(fresh, key);
        if (!*why && (base == 0 || now != base))
            std::snprintf(why, sizeof why,
                          "%s %016llx vs committed %016llx", key.c_str(),
                          (unsigned long long)now,
                          (unsigned long long)base);
    }
    const double base = rowNumber(committed, gate.metric);
    const double now = rowNumber(fresh, gate.metric);
    const bool floor = gate.relative_floor;
    char text[160];
    std::snprintf(text, sizeof text,
                  "%s %.6g vs committed %.6g (%s%.2f%s allowed)",
                  gate.metric.c_str(), now, base, floor ? "-" : "+",
                  floor ? max_regression * 100.0 : max_regression,
                  floor ? "%" : "");
    // Written so that a NaN (a missing field) fails too.
    if (!*why && !(floor ? now > base * (1.0 - max_regression)
                         : now <= base + max_regression))
        std::snprintf(why, sizeof why, "out of bound");
    if (*why) {
        std::fprintf(stderr, "FAIL: baseline %s, leg %s: %s; %s\n",
                     path.c_str(), leg.c_str(), why, text);
        return false;
    }
    std::printf("baseline gate ok: %s %s%s\n", leg.c_str(), text,
                gate.exact.empty() ? "" : ", hashes reproduced");
    return true;
}

/// @}

} // namespace quasar::bench

