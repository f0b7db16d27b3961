/**
 * @file
 * Trace-replay bench: the two checked-in cluster-trace fixtures
 * (Google task-events style, Azure vmtable style) ingested, mapped,
 * and replayed through the full Quasar manager, comparing the
 * scheduler's production dirty-set decision path against the legacy
 * full_rescan referee under the identical mapped stream.
 *
 * Gates (exit non-zero on violation):
 *   1. Parser diagnostics: each fixture carries a known number of
 *      deliberately malformed rows; the parsers must reject exactly
 *      those, with per-line diagnostics, and nothing else.
 *   2. Mode divergence: dirty / full_rescan must produce bit-identical
 *      placements (bench::foldCluster, an FNV-1a fold of the full
 *      allocation state every tick).
 *   3. Re-replay stability: replaying the same mapped trace twice in
 *      the same mode must produce the identical placement hash.
 *
 * Reports decisions/s, admission depth, QoS-violation rate, the
 * placement hash, and the wall-clock breakdown per (fixture, mode),
 * to BENCH_trace_replay.json. The full run adds a synthesizer leg:
 * a ChurnConfig fitted to the mapped Google fixture driving a
 * 2000-server stream — the "small fixture, big cluster" path.
 *
 * `--smoke` is the CI variant: both fixtures at 200 servers over a
 * short horizon, both modes plus the re-replay gate.
 *
 * To replay a real downloaded trace instead of the fixtures, point
 * `--traces=<dir>` at a directory whose files carry the fixture
 * names (google_task_events.csv / azure_vmtable.csv, optionally with
 * a .gz suffix when built with zlib) and pass `--no-diag-gate` —
 * gate 1's exact counts are a property of the bundled fixtures, not
 * of real data. Gates 2 and 3 (mode equivalence, re-replay
 * stability) still apply.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "trace/azure.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "trace/synth.hh"

using namespace quasar;

namespace
{

struct Fixture
{
    const char *name;
    const char *file;
    size_t expected_diagnostics;
    trace::TraceStream stream;
    trace::MappedTrace mapped;
};

bool
checkDiagnostics(const Fixture &fx)
{
    if (fx.stream.rows_rejected == fx.expected_diagnostics &&
        fx.stream.diagnostics.size() == fx.expected_diagnostics)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s expected exactly %zu parser rejections, "
                 "got %zu (%zu diagnostics)\n",
                 fx.name, fx.expected_diagnostics,
                 fx.stream.rows_rejected, fx.stream.diagnostics.size());
    for (const trace::RowDiagnostic &d : fx.stream.diagnostics)
        std::fprintf(stderr, "  line %zu: %s\n", d.line,
                     d.reason.c_str());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Args args = bench::parseArgs(
        argc, argv, bench::kTakesTraces | bench::kTakesDiagGate,
        "BENCH_trace_replay.json");
    const int servers = args.smoke ? 200 : 500;
    const double horizon = args.smoke ? 300.0 : 600.0;
    const uint64_t seed = 20260806;

    bench::banner(
        args.smoke ? "trace replay (smoke): google + azure fixtures"
                   : "trace replay: google + azure fixtures, dirty vs "
                     "full_rescan + synth leg");

    Fixture fixtures[2] = {
        {"google", "google_task_events.csv", 9, {}, {}},
        {"azure", "azure_vmtable.csv", 7, {}, {}},
    };
    // A line-0 diagnostic means the file could not be opened; fall
    // back to the gzip variant so downloaded traces can stay
    // compressed (decoded by the reader when built with zlib).
    auto unopenable = [](const trace::TraceStream &s) {
        return s.events.empty() && s.diagnostics.size() == 1 &&
               s.diagnostics[0].line == 0;
    };
    const std::string dir = args.traces + "/";
    fixtures[0].stream =
        trace::parseGoogleTaskEventsFile(dir + fixtures[0].file);
    if (unopenable(fixtures[0].stream))
        fixtures[0].stream = trace::parseGoogleTaskEventsFile(
            dir + fixtures[0].file + ".gz");
    fixtures[1].stream = trace::parseAzureVmFile(dir + fixtures[1].file);
    if (unopenable(fixtures[1].stream))
        fixtures[1].stream =
            trace::parseAzureVmFile(dir + fixtures[1].file + ".gz");

    trace::TraceMapperConfig mcfg;
    mcfg.target_horizon_s = horizon;
    mcfg.target_servers = servers;
    mcfg.seed = seed;
    std::vector<std::string> fixture_rows;
    std::vector<bench::Leg> legs;
    for (Fixture &fx : fixtures) {
        // The exact-count gate is for the bundled fixtures; a real
        // downloaded trace (--traces=... --no-diag-gate) rejects
        // however many rows it rejects, reported but not gated.
        if (args.diag_gate && !checkDiagnostics(fx))
            return 1;
        fx.mapped = trace::mapTrace(fx.stream, mcfg);
        bench::Row row = bench::Row()
                             .text("name", fx.name)
                             .count("rows_total", fx.stream.rows_total)
                             .count("rows_ok", fx.stream.rows_ok)
                             .count("rows_ignored", fx.stream.rows_ignored)
                             .count("rows_rejected",
                                    fx.stream.rows_rejected)
                             .count("events", fx.stream.events.size())
                             .count("mapped_instances",
                                    fx.mapped.items.size())
                             .num("population_scale",
                                  fx.mapped.population_scale, 4)
                             .num("time_scale", fx.mapped.time_scale, 6);
        fixture_rows.push_back(row.json());
        std::printf("  %s\n", fixture_rows.back().c_str());

        // Dirty, then the full_rescan referee and a second dirty
        // replay, both of which must reproduce its hashes.
        const int reference = int(legs.size());
        for (const char *mode : {"dirty", "full_rescan", "re-replay"}) {
            core::QuasarConfig qcfg;
            qcfg.scheduler.full_rescan =
                std::string(mode) == "full_rescan";
            const trace::MappedTrace *mapped = &fx.mapped;
            legs.push_back(
                {bench::Row().text("fixture", fx.name).text("mode", mode),
                 [=] {
                     return bench::replayStream(servers, horizon, qcfg,
                                                trace::TraceReplayer(*mapped));
                 },
                 legs.size() == size_t(reference) ? -1 : reference});
        }
    }

    // Synthesizer leg (full run only): fit the generator to the
    // mapped Google fixture and drive a 2000-server stream from it.
    // The fitted rate is kept as-is — the fixture runs above already
    // oversubscribe their cluster ~2x, so the same absolute load on
    // 4x the servers lands near saturation instead of deep overload
    // (which would make the run quadratic in admission depth).
    if (!args.smoke) {
        const trace::MappedTrace *google = &fixtures[0].mapped;
        legs.push_back(
            {bench::Row()
                 .text("fixture", "google")
                 .text("mode", "synth_2000_dirty"),
             [=] {
                 trace::SynthFit fit = trace::fitChurnConfig(*google, seed);
                 const churn::ChurnConfig &c = fit.config;
                 std::printf(
                     "  synth fit (google): rate %.2f/s %s, mix "
                     "%.2f/%.2f/%.2f/%.2f, phase %.3f\n",
                     c.arrival_rate_per_s,
                     c.arrivals == churn::ArrivalKind::Pareto ? "pareto"
                                                              : "poisson",
                     c.mix.single_node, c.mix.analytics, c.mix.service,
                     c.mix.best_effort, c.phase_change_fraction);
                 return bench::replayStream(2000, horizon,
                                            core::QuasarConfig{},
                                            churn::ChurnEngine(c));
             }});
    }

    bool identical = false;
    const std::vector<std::string> rows = bench::runLegs(legs, identical);
    if (!bench::writeReport(args.out,
                            bench::Row()
                                .text("name", "trace_replay")
                                .flag("smoke", args.smoke)
                                .count("servers", servers)
                                .num("horizon_s", horizon, 0),
                            {{"fixtures", fixture_rows}, {"runs", rows}}))
        return 1;
    return identical ? 0 : 1;
}
