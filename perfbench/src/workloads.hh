/**
 * @file
 * The benchmark's three workloads and one repetition of a workload:
 * set-up (cluster and manager construction, offline seeding, stream
 * generation or trace parse and map), the driver run through the
 * default unsharded QuasarManager, and the output checks.
 *
 * Every stream is open-loop in simulated time and replayed on the
 * host as one single-threaded batch.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/manager.hh"
#include "metrics.hh"
#include "trace/event.hh"
#include "timed_manager.hh"

namespace perfbench
{

/**
 * One workload at one seed. A run replays `streams` independent
 * streams of it, stream i seeded by streamSeed(seed, i), and pools
 * their results, so that a metric reflects the workload rather than
 * the luck of one stream.
 */
struct WorkloadSpec
{
    std::string name;
    uint64_t seed = 0;
    size_t streams = 1;
    int servers = 0;
    double horizon_s = 0.0;
    /** Google task-events CSV (trace-google only). */
    std::string trace_path;
    /** Parser rejections the trace fixture must produce exactly. */
    size_t expected_rejected_rows = 0;
};

/**
 * The named workload at `seed`; `data_dir` holds the trace fixture.
 * Throws std::invalid_argument for an unknown name.
 */
WorkloadSpec workloadSpec(const std::string &name, uint64_t seed,
                          const std::string &data_dir);

/**
 * Parse the workload's trace fixture. Appends an error unless the
 * parser rejects exactly spec.expected_rejected_rows rows.
 */
quasar::trace::TraceStream parseTrace(const WorkloadSpec &spec,
                                      std::vector<std::string> &errors);

/** Seed of stream i of a run at `seed`; stream 0 uses `seed` itself. */
uint64_t streamSeed(uint64_t seed, size_t i);

/** How the driver reaches the manager. */
enum class Wiring
{
    Direct,   ///< the QuasarManager itself (reference for hashes).
    Untraced, ///< through TimedManager, per-call timing only.
    Traced,   ///< through TimedManager with spans and timer deltas.
};

/** Everything one repetition measured. */
struct RepResult
{
    /** @name Set-up, host seconds */
    /// @{
    double setup_cluster_s = 0.0;
    double setup_seed_offline_s = 0.0;
    double setup_stream_s = 0.0;
    double setupSeconds() const
    {
        return setup_cluster_s + setup_seed_offline_s + setup_stream_s;
    }
    /// @}

    /** Host seconds of ScenarioDriver::run. */
    double wall_s = 0.0;
    double horizon_s = 0.0;

    /** @name Simulated outcome (identical across repetitions) */
    /// @{
    Outcomes outcomes;
    double qos_violation_rate = 0.0;
    double cpu_util_mean = 0.0;
    uint64_t placement_hash = 0;
    uint64_t decision_hash = 0;
    /// @}

    /** @name Forwarding-manager measurements (not for Direct) */
    /// @{
    std::array<CallTotals, kCalls> calls{};
    std::vector<double> submit_s;
    /** TimedManager::stepSeconds(): the run, call by call. */
    std::vector<double> step_s;
    std::vector<double> tick_s;
    std::vector<Span> spans;
    /// @}

    /** @name Manager counters after the run */
    /// @{
    quasar::core::QuasarStats stats;
    quasar::core::SchedulerTiming sched_timing;
    size_t online_rows = 0;
    size_t ticks = 0;
    double depth_mean = 0.0;
    size_t depth_max = 0;
    /// @}

    /** Failed output checks; empty when the outputs are correct. */
    std::vector<std::string> errors;
};

/** Set up and run stream `stream` of the workload once. */
RepResult runRep(const WorkloadSpec &spec, size_t stream, Wiring wiring);

/**
 * FNV-1a fold of the cluster's final allocation state, the same fold
 * bench/churn.cc applies per tick, applied once.
 */
uint64_t placementHash(const quasar::sim::Cluster &cluster);

} // namespace perfbench
