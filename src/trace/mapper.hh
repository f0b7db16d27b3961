/**
 * @file
 * TraceMapper: turns a canonical TraceStream into the replayable
 * instance list — classes from the existing workload-factory
 * catalogs, times rescaled to a target horizon, population rescaled
 * to a target server count.
 *
 * Classification (documented thresholds, constants in mapper.cc):
 *   - priority >= kServicePriorityMin OR sched_class >=
 *     kServiceSchedClassMin  -> Service (latency-critical): the
 *     Google production band / Azure interactive VMs.
 *   - priority <= kBestEffortPriorityMax -> BestEffort (the free
 *     band: evictable filler).
 *   - cpu demand >= kAnalyticsCpuMin of the source's largest
 *     machine -> Analytics (too big for one node: scale-out
 *     framework job).
 *   - otherwise -> SingleNode batch.
 *
 * Pairing: each Arrival opens an instance; a Departure closes the
 * most recently opened instance with the same id; a Resize marks the
 * open instance as phase-changing (the replay adapter turns that
 * into a mid-life GroundTruth morph). Unmatched departures/resizes
 * are counted, never fatal.
 *
 * Rescaling: source times are shifted to 0 and scaled so the trace
 * span equals target_horizon_s. Population scales by
 * target_servers / source_servers (source_servers inferred from the
 * peak concurrent CPU demand when not given): factors < 1 thin the
 * instance list deterministically by id hash; factors > 1 clone
 * instances with deterministic id-salted arrival offsets. The whole
 * map is a pure function of (stream, config) — no RNG, no global
 * state — which is what keeps replay bit-identical.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "churn/churn.hh"
#include "trace/event.hh"

namespace quasar::trace
{

/** Mapping knobs; defaults suit both bundled fixtures. */
struct TraceMapperConfig
{
    /** Rescale the trace span onto this horizon (seconds). */
    double target_horizon_s = 900.0;
    /** Rescale the population onto this many servers. */
    int target_servers = 1000;
    /**
     * Size of the source cluster in machines; 0 infers it from the
     * peak concurrent normalized CPU demand (machine-equivalents).
     */
    double source_servers = 0.0;
    /** Salt for the deterministic thinning/cloning hash. */
    uint64_t seed = 1;
};

/** One replayable instance of the mapped trace. */
struct MappedItem
{
    uint64_t source_id = 0;
    churn::ChurnClass cls = churn::ChurnClass::SingleNode;
    double arrival_s = 0.0;
    /** Scheduled departure; <= 0 means "runs until completion". */
    double depart_s = 0.0;
    /** Normalized demands carried through from the trace, [0, 1]. */
    double cpu = 0.0;
    double memory = 0.0;
    /** The source resized this instance mid-life (phase change). */
    bool phase_change = false;
};

/** Per-class instance counts. */
struct MappedMix
{
    size_t single_node = 0;
    size_t analytics = 0;
    size_t service = 0;
    size_t best_effort = 0;

    size_t total() const
    {
        return single_node + analytics + service + best_effort;
    }
};

/** The mapped, rescaled, replayable trace. */
struct MappedTrace
{
    /** Instances in arrival order (ties keep source order). */
    std::vector<MappedItem> items;
    MappedMix mix;

    double horizon_s = 0.0;       ///< target horizon applied.
    int target_servers = 0;       ///< target population applied.
    double source_servers = 0.0;  ///< given or inferred source size.
    double time_scale = 1.0;      ///< target seconds per source second.
    double population_scale = 1.0;

    size_t departures_planned = 0;
    size_t phase_changes = 0;
    /** Source anomalies, counted but never fatal. */
    size_t unmatched_departures = 0;
    size_t unmatched_resizes = 0;
    size_t duplicate_arrivals = 0;
};

/** Map a canonical stream; pure function of (stream, cfg). */
MappedTrace mapTrace(const TraceStream &stream,
                     const TraceMapperConfig &cfg = {});

} // namespace quasar::trace
