/**
 * @file
 * Overload-control bench: open-loop diurnal + flash-crowd traffic
 * through the full manager, controller off vs on, reporting the QoS
 * cost of overload and what shedding / backpressure / brownout / the
 * PI service autoscaler buy back.
 *
 * Traffic: ChurnEngine stream shaped by a PiecewiseLoad rate pattern
 * — a diurnal swell (0.5x -> 1.1x of the configured rate) with a
 * flash crowd at t in [450, 600) that multiplies the arrival rate by
 * 10. The mix is best-effort heavy (the Alibaba co-location shape) so
 * the controller has sheddable work to sacrifice for the latency
 * services.
 *
 * Per leg the bench reports the four-way QoS outcome split (completed
 * / departed / shed / active, plus degraded-ever), shed fraction,
 * goodput, the latency services' QoS-violation rate, time-in-state of
 * the detector, controller counters, and both replay hashes: the
 * per-tick placement fold (bench::foldCluster) and the controller's
 * own decision hash.
 *
 * Gates (exit 1):
 *  - replay: the controller-on leg re-run under the full_rescan
 *    scheduler and re-replayed under dirty must reproduce both hashes
 *    bit-identically;
 *  - accounting: completed + departed + shed + active == arrivals in
 *    every leg (no arrival leaks out of the outcome split);
 *  - QoS: controller-on must violate strictly less than
 *    controller-off over the crowd-and-recovery window [450, 750);
 *  - baseline (with --baseline): the on-dirty leg's crowd-window
 *    violation rate must stay within --max-regression (absolute) of
 *    the committed BENCH_overload.json row, and its placement and
 *    decision hashes must equal the committed ones.
 *
 * `--smoke` is the CI variant: the 200-server legs only. The full
 * run adds 500-server off/on legs and google-trace-fitted synth
 * legs (trace::fitChurnConfig) with the same flash-crowd overlay.
 * (500, not 1000: the controller-off leg at 1000 servers spends
 * tens of minutes draining a many-hundred-deep admission queue
 * against a saturated cluster — all cost, no extra signal.)
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/overload.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/synth.hh"
#include "tracegen/load_pattern.hh"

using namespace quasar;

namespace
{

/** The flash crowd hits at 450 s; QoS is also scored over the crowd
 *  plus its recovery tail, where overload control earns its keep. */
constexpr double kCrowdStart = 450.0;
constexpr double kCrowdWindowEnd = 750.0;
constexpr double kHorizon = 900.0;

/** Diurnal swell with a 10x flash crowd at t in [450, 600). */
tracegen::LoadPatternPtr
diurnalFlashCrowd()
{
    return std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.5},
                                               {150.0, 0.9},
                                               {300.0, 1.1},
                                               {440.0, 1.0},
                                               {450.0, 10.0},
                                               {595.0, 10.0},
                                               {600.0, 1.0},
                                               {750.0, 0.7},
                                               {900.0, 0.5}});
}

/** Best-effort-heavy open-loop stream shaped by the crowd pattern. */
churn::ChurnConfig
streamFor(int servers, double horizon_s)
{
    churn::ChurnConfig cfg;
    cfg.seed = 20260808;
    cfg.arrivals = churn::ArrivalKind::Poisson;
    cfg.arrival_rate_per_s = 0.16 * double(servers) / 200.0;
    cfg.rate_pattern = diurnalFlashCrowd();
    cfg.horizon_s = horizon_s;
    cfg.mix = {0.30, 0.15, 0.15, 0.40};
    cfg.phase_change_fraction = 0.05;
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.5 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

/** The controller configuration every "on" leg runs. */
core::OverloadConfig
controllerOn()
{
    core::OverloadConfig cfg;
    cfg.enabled = true;
    cfg.util_pressured = 0.85;
    cfg.util_overloaded = 0.97;
    cfg.depth_pressured = 8;
    cfg.depth_overloaded = 24;
    cfg.min_dwell_s = 30.0;
    cfg.defer_base_s = 15.0;
    cfg.defer_max_s = 60.0;
    cfg.shed_deadline_s = 120.0;
    cfg.aging_limit_s = 240.0;
    cfg.brownout = true;
    cfg.policy = core::ScalingPolicyKind::Pi;
    cfg.scale_interval_s = 30.0;
    return cfg;
}

/** The crowd-window QoS score and the controller's counters. */
bench::Row
overloadFields(const driver::ScenarioDriver &drv,
               const core::QuasarManager &mgr,
               const std::vector<churn::ChurnItem> &plan)
{
    // Crowd-window score only for services that were actually sampled
    // inside the window (meanOver returns 0 when none were, which
    // would misread absence as total violation).
    double crowd_sum = 0.0;
    size_t crowd_n = 0;
    for (const churn::ChurnItem &item : plan) {
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace)
            continue;
        const stats::TimeSeries &qf = trace->qos_fraction;
        bool in_window = false;
        for (size_t i = 0; i < qf.size() && !in_window; ++i)
            in_window = qf.timeAt(i) >= kCrowdStart &&
                        qf.timeAt(i) < kCrowdWindowEnd;
        if (in_window) {
            crowd_sum += qf.meanOver(kCrowdStart, kCrowdWindowEnd);
            ++crowd_n;
        }
    }
    const core::QuasarStats &st = mgr.stats();
    const core::OverloadController &ctl = mgr.overload();
    return bench::Row()
        .num("qos_violation_crowd",
             crowd_n ? 1.0 - crowd_sum / double(crowd_n) : 0.0, 4)
        .num("frac_pressured",
             ctl.fractionIn(core::OverloadState::Pressured), 4)
        .num("frac_overloaded",
             ctl.fractionIn(core::OverloadState::Overloaded), 4)
        .count("deferred", st.overload_deferred)
        .count("brownouts", st.brownouts)
        .count("restores", st.brownout_restores)
        .count("autoscale_updates", st.autoscale_updates)
        .count("transitions", st.overload_transitions);
}

/** One leg: the stream replayed with the controller off or on. */
bench::Leg
leg(const char *name, int servers, const churn::ChurnConfig &ccfg,
    bool controller, bool full_rescan, int reproduces = -1)
{
    core::QuasarConfig qcfg;
    qcfg.scheduler.full_rescan = full_rescan;
    if (controller)
        qcfg.overload = controllerOn();
    return {bench::Row()
                .text("leg", name)
                .count("servers", servers)
                .flag("controller", controller)
                .text("mode", full_rescan ? "full_rescan" : "dirty"),
            [=] {
                return bench::replayStream(servers, kHorizon, qcfg,
                                           churn::ChurnEngine(ccfg),
                                           overloadFields);
            },
            reproduces};
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(
        argc, argv, bench::kTakesBaseline | bench::kTakesTraces,
        "BENCH_overload.json", 0.05);
    const int gate_servers = 200;
    const churn::ChurnConfig stream = streamFor(gate_servers, kHorizon);

    // The on-dirty leg (index 1) is the reference every other
    // controller-on leg at the gate scale must reproduce — placement
    // AND decision hashes — across the scheduler index mode and a
    // full re-replay.
    std::vector<bench::Leg> legs = {
        leg("off-dirty", gate_servers, stream, false, false),
        leg("on-dirty", gate_servers, stream, true, false),
        leg("on-full_rescan", gate_servers, stream, true, true, 1),
        leg("on-dirty-replay", gate_servers, stream, true, false, 1),
    };
    if (!args.smoke) {
        legs.push_back(
            leg("off-500", 500, streamFor(500, kHorizon), false, false));
        legs.push_back(
            leg("on-500", 500, streamFor(500, kHorizon), true, false));
        // Synth legs: fit a churn stream to the bundled google
        // fixture and overlay the same flash-crowd pattern on it, so
        // the crowd rides on trace-shaped arrivals and lifetimes.
        const std::string file = args.traces + "/google_task_events.csv";
        trace::TraceStream events = trace::parseGoogleTaskEventsFile(file);
        if (events.events.empty())
            events = trace::parseGoogleTaskEventsFile(file + ".gz");
        if (events.events.empty()) {
            std::printf("no google fixture under %s; skipping the "
                        "synth legs\n",
                        args.traces.c_str());
        } else {
            trace::TraceMapperConfig mcfg;
            mcfg.target_horizon_s = kHorizon;
            mcfg.target_servers = 500;
            mcfg.seed = 20260808;
            churn::ChurnConfig synth =
                trace::fitChurnConfig(trace::mapTrace(events, mcfg),
                                      20260808, kHorizon)
                    .config;
            synth.rate_pattern = diurnalFlashCrowd();
            // The fitted rate reflects the trace's average pressure;
            // clamp it so the 10x crowd overlay lands in the overload
            // regime without drowning the off leg in a
            // many-thousand-deep queue (the google fixture fits to
            // ~6.3/s at 500 servers, which the crowd would multiply
            // to ~63/s — hours of saturated-cluster retries for no
            // extra signal).
            synth.arrival_rate_per_s =
                std::clamp(synth.arrival_rate_per_s, 0.4, 0.5);
            std::printf("  synth legs: fitted rate %.3f/s\n",
                        synth.arrival_rate_per_s);
            legs.push_back(leg("synth-off", 500, synth, false, false));
            legs.push_back(leg("synth-on", 500, synth, true, false));
        }
    }

    bench::banner(args.smoke ? "overload control (smoke): flash crowd, "
                               "controller off vs on"
                             : "overload control: flash crowd at "
                               "200/500 servers + google-fitted synth "
                               "legs");
    bool identical = false;
    const std::vector<std::string> rows = bench::runLegs(legs, identical);
    if (!bench::writeReport(args.out,
                            bench::Row()
                                .text("name", "overload")
                                .flag("smoke", args.smoke)
                                .num("horizon_s", kHorizon, 0),
                            {{"legs", rows}}))
        return 1;

    int rc = identical ? 0 : 1;
    for (const std::string &row : rows) {
        const double sum = bench::rowNumber(row, "completed") +
                           bench::rowNumber(row, "departed") +
                           bench::rowNumber(row, "shed") +
                           bench::rowNumber(row, "active");
        if (sum != bench::rowNumber(row, "arrivals")) {
            std::fprintf(stderr, "FAIL: leg leaks arrivals: %s\n",
                         row.c_str());
            rc = 1;
        }
    }
    const double off = bench::rowNumber(rows[0], "qos_violation_crowd");
    const double on = bench::rowNumber(rows[1], "qos_violation_crowd");
    if (!(on < off)) {
        std::fprintf(stderr,
                     "FAIL: controller on does not improve "
                     "crowd-window QoS (%.4f vs off %.4f)\n",
                     on, off);
        rc = 1;
    } else {
        std::printf("qos gate ok: crowd-window violation on %.4f < "
                    "off %.4f (shed %.3f of arrivals for it)\n",
                    on, off, bench::rowNumber(rows[1], "shed_fraction"));
    }
    if (!args.baseline.empty() &&
        !bench::checkBaseline(args.baseline, legs[1].keys, rows[1],
                              {{"placement_hash", "decision_hash"},
                               "qos_violation_crowd", false},
                              args.max_regression))
        rc = 1;
    return rc;
}
