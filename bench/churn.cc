/**
 * @file
 * Churn bench: sustained open-loop workload streams through the full
 * Quasar manager at 1k / 5k / 10k / 50k / 100k servers. Every scale
 * runs the production dirty-set decision path; up to 10k the legacy
 * full_rescan path replays the identical seeded stream as the
 * equivalence referee. At 50k and 100k full_rescan's O(N)-per-call
 * walk is too slow to be a useful referee, so those scales instead
 * run the dirty mode twice ("dirty-rerun") and require the two
 * replays to produce identical placement hashes — a determinism
 * check at the scale the maintained order was built for.
 *
 * For each (scale, mode) the bench reports sustained decisions/sec,
 * admission-queue depth, the QoS-violation rate of the latency
 * services in the stream, and the full wall-clock breakdown —
 * classify / profile / schedule / adapt from QuasarStats, rank /
 * place from SchedulerTiming, and the driver tick envelope — then
 * writes everything to BENCH_churn.json.
 *
 * Divergence detection: every tick folds the complete allocation
 * state into a running FNV-1a hash (bench::foldCluster); any
 * placement difference between scheduler modes at any tick produces
 * different final hashes. The bench fails if the modes diverge, and
 * (with --baseline) if the dirty-mode decisions/sec at a committed
 * scale regressed more than --max-regression, or its placement hash
 * moved, against the committed BENCH_churn.json.
 *
 * `--smoke` is the CI variant: the 1000-server slice only, both
 * modes, plus a dirty-only 10k leg, same horizon as the full run so
 * its decisions/sec compare directly against the committed baseline.
 * The full run adds 5000 to 100000 servers.
 */

#include <string>
#include <vector>

#include "bench/common.hh"

using namespace quasar;

namespace
{

churn::ChurnConfig
streamFor(int servers, double horizon_s)
{
    churn::ChurnConfig cfg;
    cfg.seed = 20260806;
    cfg.arrivals = churn::ArrivalKind::Pareto;
    cfg.pareto_alpha = 1.6;
    // Open-loop pressure scales with the cluster so the decision path
    // stays busy at every size.
    cfg.arrival_rate_per_s = 0.6 * double(servers) / 1000.0;
    cfg.horizon_s = horizon_s;
    cfg.phase_change_fraction = 0.06;
    cfg.server_mttf_s = 40.0 * horizon_s * double(servers);
    cfg.server_mttr_s = horizon_s / 6.0;
    // Short heavy-tailed lifetimes: steady arrival/departure churn
    // within the bench horizon.
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.4 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(
        argc, argv, bench::kTakesBaseline, "BENCH_churn.json", 0.25);

    // Smoke runs the same horizon as the full bench (so its numbers
    // are directly comparable to the committed baseline) but only
    // the 1000-server slice plus a dirty-only 10k leg — seconds
    // instead of minutes. full_rescan referees the dirty path up to
    // 10k; it is O(N) per call, so at 50k/100k the referee is a
    // second seeded dirty replay that must reproduce the placement
    // hash exactly.
    const double horizon = 900.0;
    std::vector<bench::Leg> legs;
    std::vector<size_t> gated; // primary dirty legs
    auto add = [&](int servers, const char *mode) {
        core::QuasarConfig qcfg;
        qcfg.scheduler.full_rescan = std::string(mode) == "full_rescan";
        const bool primary = std::string(mode) == "dirty";
        if (primary)
            gated.push_back(legs.size());
        legs.push_back(
            {bench::Row().count("servers", servers).text("mode", mode),
             [=] {
                 return bench::replayStream(
                     servers, horizon, qcfg,
                     churn::ChurnEngine(streamFor(servers, horizon)));
             },
             primary ? -1 : int(gated.back())});
    };
    add(1000, "dirty");
    add(1000, "full_rescan");
    if (args.smoke) {
        add(10000, "dirty");
    } else {
        for (int servers : {5000, 10000}) {
            add(servers, "dirty");
            add(servers, "full_rescan");
        }
        for (int servers : {50000, 100000}) {
            add(servers, "dirty");
            add(servers, "dirty-rerun");
        }
    }

    bench::banner(args.smoke
                      ? "churn stream (smoke): dirty vs full_rescan "
                        "at 1k, dirty at 10k"
                      : "churn stream: dirty vs full_rescan to 10k, "
                        "dirty re-replay to 100k servers");
    bool identical = false;
    const std::vector<std::string> rows = bench::runLegs(legs, identical);
    if (!bench::writeReport(args.out,
                            bench::Row()
                                .text("name", "churn")
                                .flag("smoke", args.smoke)
                                .num("horizon_s", horizon, 0),
                            {{"scales", rows}}))
        return 1;
    if (!identical)
        return 1;
    // Every primary dirty leg: throughput within max_regression of
    // the committed row, placement hash reproduced exactly (seeded
    // stream + deterministic decision path).
    const bench::Gate gate{{"placement_hash"}, "decisions_per_s", true};
    for (size_t i : gated)
        if (!args.baseline.empty() &&
            !bench::checkBaseline(args.baseline, legs[i].keys, rows[i],
                                  gate, args.max_regression))
            return 1;
    return 0;
}
