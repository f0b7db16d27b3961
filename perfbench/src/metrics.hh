/**
 * @file
 * Metric arithmetic of the benchmark, kept apart from the runs so the
 * tests can check it on hand-built inputs: percentiles with their
 * sample counts, the failed-arrival share, and the exclusive layer
 * split of a traced run.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace perfbench
{

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it. p is clamped into [0, 100]; NaN when empty.
 */
double percentile(std::vector<double> samples, double p);

/**
 * Samples strictly beyond the nearest-rank p-th percentile of n
 * samples. A percentile is reported only with at least ten beyond it.
 */
size_t samplesBeyond(size_t n, double p);

/** Median (nearest-rank p50) of a list of per-repetition values. */
double median(std::vector<double> values);

/**
 * Mean of the middle half: the values sorted, a quarter (rounded
 * down) dropped from each end, the rest averaged. Steadier than the
 * median and still blind to one rare outlier in four. NaN when empty.
 */
double trimmedMean(std::vector<double> values);

/**
 * Index-wise median of equally long sample lists, such as the step
 * times of several replays of one stream: element k is the median of
 * the lists' k-th samples. Throws std::invalid_argument when no list
 * is given or their lengths differ.
 */
std::vector<double>
indexwiseMedian(const std::vector<std::vector<double>> &lists);

/** Outcome split of a set of arrivals (driver::outcomeOf). */
struct Outcomes
{
    size_t arrivals = 0;
    size_t completed = 0;
    size_t departed = 0;
    size_t shed = 0;
    size_t active = 0;
    /** Arrivals that never held resources (shed ones excluded). */
    size_t never_placed = 0;
    /**
     * Simulated seconds from arrival to first placement, placed
     * arrivals only. The driver stamps a placement made while it
     * settles a completion inside a tick with that completion's
     * earlier instant, which can precede the arrival; such waits are
     * counted as early placements and read as 0.
     */
    std::vector<double> waits_s;
    size_t early_placements = 0;

    /** Pool another stream's arrivals into this split. */
    void add(const Outcomes &o);
};

/** Classify every listed arrival of the registry. */
Outcomes outcomesOf(const quasar::workload::WorkloadRegistry &registry,
                    const std::vector<quasar::WorkloadId> &ids);

/** (shed + never placed by the horizon) / arrivals; 0 when none. */
double failedFraction(const Outcomes &o);

/** The manager entry points the forwarding manager times. */
enum class Call : uint8_t
{
    Submit,
    Tick,
    Completion,
    Fault,
};
constexpr size_t kCalls = 4;
const char *callName(Call c);

/**
 * One manager call as seen from outside: host interval plus the
 * deltas of the manager's public timers read around it.
 */
struct Span
{
    Call call = Call::Submit;
    /** Seconds since the run started. */
    double start_s = 0.0;
    double end_s = 0.0;
    /** Index of the enclosing span; -1 = the driver's run. */
    int32_t parent = -1;
    /** The arriving workload for onSubmit / onCompletion, else 0. */
    uint64_t workload = 0;
    double classify_s = 0.0; ///< Δ QuasarStats::classify_time.
    double schedule_s = 0.0; ///< Δ QuasarStats::schedule_time.
    double rank_s = 0.0;     ///< Δ SchedulerTiming::rank.
    double place_s = 0.0;    ///< Δ SchedulerTiming::place.

    double duration() const { return end_s - start_s; }
    /**
     * Inclusive scheduler time of the call. The adapt loop calls the
     * scheduler outside schedule_time, so rank + place can exceed it;
     * the larger of the two is the scheduler's lower bound and keeps
     * every exclusive part non-negative.
     */
    double scheduleInclusive() const;
};

/**
 * Exclusive wall-clock split of one traced run. The parts are disjoint
 * and sum to the run's wall-clock.
 */
struct Exclusive
{
    double driver_self = 0.0;
    std::array<double, kCalls> call_self{};
    double classify = 0.0;
    double schedule_self = 0.0;
    double rank = 0.0;
    double place = 0.0;

    double sum() const;
    /** The smallest part (the split is valid only when >= 0). */
    double minPart() const;
};

Exclusive exclusiveSplit(double wall_s, const std::vector<Span> &spans);

} // namespace perfbench
