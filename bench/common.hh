/**
 * @file
 * Shared helpers for the experiment benches: standard seed-workload
 * sets, table formatting, scenario glue, and readers for committed
 * baseline rows. Each bench binary regenerates one table or figure of
 * the paper and prints the same rows/series the paper reports.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

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
    const std::string tag = "\"" + std::string(key) + "\":";
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
    const std::string tag = "\"" + std::string(key) + "\": \"";
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

} // namespace quasar::bench

