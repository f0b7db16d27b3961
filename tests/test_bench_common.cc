/**
 * @file
 * The replay harness shared by the stream benches (bench/common.hh):
 * report rows read back through the baseline readers, the placement
 * fold, the command line, and the committed-baseline gate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace quasar;

namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

bench::Row
churnKeys(int servers, const char *mode)
{
    return bench::Row().count("servers", servers).text("mode", mode);
}

/** A churn-style row: identity keys plus a rate and a hash. */
std::string
churnRow(int servers, const char *mode, double rate, uint64_t hash)
{
    return churnKeys(servers, mode)
        .num("decisions_per_s", rate, 1)
        .hex("placement_hash", hash)
        .flag("identical", true)
        .json();
}

/** Writes a report whose dirty-rerun and 10000-server rows precede
 *  the 1000-server dirty row, so a loose marker would alias them. */
std::string
writeChurnReport(const char *name)
{
    const std::string path = tempPath(name);
    EXPECT_TRUE(bench::writeReport(
        path,
        bench::Row().text("name", "churn").flag("smoke", true).num(
            "horizon_s", 900.0, 0),
        {{"scales",
          {churnRow(1000, "dirty-rerun", 111.0, 0x1111),
           churnRow(10000, "dirty", 222.0, 0x2222),
           churnRow(1000, "dirty", 1234.5, 0x996f0bbe1238b6ecULL)}}}));
    return path;
}

bench::Args
parse(std::vector<std::string> argv, unsigned takes)
{
    std::vector<char *> ptrs;
    for (std::string &a : argv)
        ptrs.push_back(a.data());
    return bench::parseArgs(int(ptrs.size()), ptrs.data(), takes,
                            "BENCH_x.json", 0.25);
}

sim::Cluster
twoSocketCluster(int n)
{
    auto catalog = sim::numaPlatforms();
    std::vector<int> counts(catalog.size(), 0);
    for (size_t i = 0; i < catalog.size(); ++i)
        if (catalog[i].topology.numSockets() == 2)
            counts[i] = n;
    return sim::Cluster(catalog, counts);
}

uint64_t
foldOf(const sim::Cluster &cluster)
{
    uint64_t h = bench::kFnvBasis;
    bench::foldCluster(cluster, h);
    return h;
}

} // namespace

TEST(BenchCommon, ReportRowsReadBackThroughBaselineReaders)
{
    const std::string path = writeChurnReport("bench_common_rows.json");

    // The closing quote keeps "dirty" from matching "dirty-rerun",
    // the trailing comma keeps 1000 from matching 10000.
    const std::string dirty = bench::baselineRow(
        path, {"\"servers\": 1000,", "\"mode\": \"dirty\""});
    EXPECT_EQ(bench::rowHex(dirty, "placement_hash"),
              0x996f0bbe1238b6ecULL);
    EXPECT_DOUBLE_EQ(bench::rowNumber(dirty, "decisions_per_s"), 1234.5);

    const std::string rerun =
        bench::baselineRow(path, {"\"mode\": \"dirty-rerun\""});
    EXPECT_EQ(bench::rowHex(rerun, "placement_hash"), 0x1111u);

    // A loose marker does alias: the first row that carries it wins.
    EXPECT_EQ(bench::rowHex(bench::baselineRow(path, {"\"mode\": \"dirty"}),
                            "placement_hash"),
              0x1111u);

    EXPECT_DOUBLE_EQ(
        bench::rowNumber(bench::baselineRow(path, {"\"horizon_s\""}),
                         "horizon_s"),
        900.0);
    EXPECT_TRUE(std::isnan(bench::rowNumber(dirty, "absent")));
    EXPECT_EQ(bench::rowHex(dirty, "absent"), 0u);
}

TEST(BenchCommon, GateSelectsTheLegByItsKeysAndFailsOnDriftOrAbsence)
{
    const std::string path = writeChurnReport("bench_common_gate.json");
    const bench::Gate gate{{"placement_hash"}, "decisions_per_s", true};
    auto fresh = [](double rate, uint64_t hash) {
        return churnRow(1000, "dirty", rate, hash);
    };
    const bench::Row keys = churnKeys(1000, "dirty");

    EXPECT_TRUE(bench::checkBaseline(
        path, keys, fresh(1000.0, 0x996f0bbe1238b6ecULL), gate, 0.25));
    // Hash drift, a rate below the floor, no row, no file.
    EXPECT_FALSE(bench::checkBaseline(
        path, keys, fresh(1234.5, 0x996f0bbe1238b6edULL), gate, 0.25));
    EXPECT_FALSE(bench::checkBaseline(
        path, keys, fresh(900.0, 0x996f0bbe1238b6ecULL), gate, 0.25));
    EXPECT_FALSE(bench::checkBaseline(path, churnKeys(5000, "dirty"),
                                      fresh(1234.5, 0x1), gate, 0.25));
    EXPECT_FALSE(bench::checkBaseline(tempPath("bench_common_absent.json"),
                                      keys, fresh(1234.5, 0x1), gate,
                                      0.25));

    // The absolute ceiling of the QoS gates.
    const bench::Gate qos{{}, "decisions_per_s", false};
    EXPECT_TRUE(bench::checkBaseline(path, keys, fresh(1234.5, 0), qos,
                                     0.05));
    EXPECT_FALSE(bench::checkBaseline(path, keys, fresh(1234.7, 0), qos,
                                      0.05));
}

TEST(BenchCommon, FoldClusterChangesWithOneServersLivenessAlone)
{
    sim::Cluster cluster = twoSocketCluster(4);
    const uint64_t live = foldOf(cluster);
    EXPECT_EQ(foldOf(cluster), live);
    EXPECT_TRUE(cluster.server(ServerId(2)).markDown().empty());
    EXPECT_NE(foldOf(cluster), live);
}

TEST(BenchCommon, FoldClusterChangesWithOneTasksSocketAlone)
{
    auto placed = [](int socket) {
        sim::Cluster cluster = twoSocketCluster(2);
        sim::TaskShare share;
        share.workload = 7;
        share.cores = 2;
        share.memory_gb = 1.0;
        share.socket = socket;
        cluster.server(ServerId(1)).place(share);
        return foldOf(cluster);
    };
    EXPECT_EQ(placed(0), placed(0));
    EXPECT_NE(placed(0), placed(1));
    EXPECT_NE(placed(0), foldOf(twoSocketCluster(2)));
}

TEST(BenchCommon, ParserTakesOnlyTheBenchsFlags)
{
    bench::Args a = parse({"churn", "--smoke", "--baseline=b.json",
                           "--max-regression=0.1"},
                          bench::kTakesBaseline);
    EXPECT_TRUE(a.smoke);
    EXPECT_EQ(a.out, "BENCH_x.json");
    EXPECT_EQ(a.baseline, "b.json");
    EXPECT_DOUBLE_EQ(a.max_regression, 0.1);

    a = parse({"trace_replay", "--out=t.json", "--traces=d",
               "--no-diag-gate"},
              bench::kTakesTraces | bench::kTakesDiagGate);
    EXPECT_EQ(a.out, "t.json");
    EXPECT_EQ(a.traces, "d");
    EXPECT_FALSE(a.diag_gate);
    EXPECT_DOUBLE_EQ(a.max_regression, 0.25);
}

TEST(BenchCommonDeathTest, ParserExitsTwoOnAFlagTheBenchDoesNotTake)
{
    // Unknown, misspelt, space-separated, malformed, and a flag that
    // only another bench takes.
    const unsigned churn = bench::kTakesBaseline;
    const auto exits2 = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(parse({"churn", "--bogus"}, churn), exits2, "usage");
    EXPECT_EXIT(parse({"churn", "--max-regresion=0.2"}, churn), exits2,
                "bad argument '--max-regresion=0.2'");
    EXPECT_EXIT(parse({"churn", "--baseline", "b.json"}, churn), exits2,
                "bad argument '--baseline'");
    EXPECT_EXIT(parse({"churn", "--max-regression=abc"}, churn), exits2,
                "usage");
    EXPECT_EXIT(parse({"churn", "--out="}, churn), exits2, "usage");
    EXPECT_EXIT(parse({"churn", "--traces=d"}, churn), exits2, "usage");
    EXPECT_EXIT(parse({"trace_replay", "--baseline=b.json"},
                      bench::kTakesTraces | bench::kTakesDiagGate),
                exits2, "usage");
}
