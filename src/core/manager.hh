/**
 * @file
 * QuasarManager: the full cluster manager of the paper, tying together
 * sandboxed profiling, the four-way CF classification, greedy joint
 * allocation/assignment, admission control, runtime monitoring with
 * reactive and proactive phase detection, the misclassification
 * feedback loop, and conservative allocation adjustment (scale up or
 * down in place first, then out, with state-migration costs for
 * stateful services).
 */

#pragma once

#include <map>
#include <unordered_map>

#include "core/admission.hh"
#include "core/classifier.hh"
#include "core/monitor.hh"
#include "core/overload.hh"
#include "core/predictor.hh"
#include "core/scheduler.hh"
#include "driver/cluster_manager.hh"
#include "workload/factory.hh"

namespace quasar::core
{

/** Top-level Quasar configuration. */
struct QuasarConfig
{
    profiling::ProfilerConfig profiler;
    ClassifierConfig classifier;
    SchedulerConfig scheduler;
    MonitorConfig monitor;
    /** Overload control + service autoscaler (core/overload.hh);
     *  disabled by default so existing decision paths and their
     *  placement hashes are unperturbed. */
    OverloadConfig overload;

    /** Enable proactive phase sampling (paper Sec. 4.1). */
    bool proactive_detection = true;
    double proactive_interval_s = 600.0;
    double proactive_fraction = 0.2;

    /** Enable the misclassification feedback loop (Sec. 3.2). */
    bool feedback_loop = true;
    /**
     * Size services against the forecast load this far ahead (Sec. 4.1
     * future work: PRESS/AGILE-style prediction as an extra signal);
     * 0 disables predictive sizing.
     */
    double predict_lead_s = 120.0;
    /** Feedback when |measured/predicted - 1| exceeds this. */
    double feedback_deviation = 0.15;

    /** Reclassify+reschedule after this many failed adjustments. */
    int underperf_strikes = 3;
    /** Minimum time between growth adjustments of one workload,
     *  seconds (conservative adaptation; prevents scale-out churn). */
    double adjust_cooldown_s = 30.0;
    /** Minimum time between shrinks (lazier than growth so the
     *  allocation does not oscillate around the target). */
    double shrink_cooldown_s = 180.0;
    /** A fresh placement must beat the current one by this factor
     *  before a reschedule abandons held resources. */
    double reschedule_hysteresis = 1.10;
    /** Minimum time between reclassify+reschedule attempts for one
     *  workload (each costs a fresh profiling pass). */
    double reschedule_cooldown_s = 300.0;
    /** Fraction of required perf below which a workload queues. */
    double admit_fraction = 0.5;
    /**
     * Use resource partitioning (Sec. 4.4: cache partitioning / NIC
     * rate limiting) to shield a workload from contention before
     * resorting to scaling or migration.
     */
    bool resource_partitioning = true;
    /** Migration bandwidth for stateful scale-out, GB/s. */
    double migration_gbps = 1.0;
    /** Capacity multiplier during a migration window. */
    double migration_factor = 0.9;

    /**
     * Retry backoff for workloads displaced by machine failures that
     * cannot be re-placed immediately (capacity temporarily gone):
     * first retry after failure_backoff_s, doubling up to the max.
     */
    double failure_backoff_s = 20.0;
    double failure_backoff_max_s = 160.0;
    /**
     * On re-placement after a failure, spread latency-critical
     * replicas across fault zones (Sec. 4.4) so a repeat outage of
     * the same rack/PDU cannot take the whole service down again.
     */
    bool spread_zones_on_recovery = true;

    uint64_t seed = 99;
};

/** Counters exposed for experiments and tests. */
struct QuasarStats
{
    /**
     * Wall-clock (host) time of the decision path, not simulated
     * time: what the manager itself costs. Rank/place breakdowns
     * live in GreedyScheduler::timing().
     */
    stats::TimerStat classify_time; ///< profiling + classification.
    /** Sandboxed profiling runs alone: the profiling subset of
     *  classify_time, plus proactive phase-change probes. */
    stats::TimerStat profile_time;
    stats::TimerStat schedule_time; ///< allocate() per schedule call.
    stats::TimerStat adapt_time;    ///< the adjust() decision body.

    size_t scheduled = 0;
    size_t queued = 0;
    size_t rescheduled = 0;
    size_t evictions = 0;
    size_t phase_reclassifications = 0;
    size_t scale_up_adjustments = 0;
    size_t scale_out_adjustments = 0;
    size_t shrinks = 0;
    size_t feedback_updates = 0;
    size_t partitions_granted = 0;
    /** @name Fault tolerance */
    /// @{
    size_t server_failures = 0;  ///< crash events seen.
    size_t tasks_displaced = 0;  ///< displaced workload shares.
    size_t recoveries = 0;       ///< displaced workloads re-placed.
    /// @}
    /** @name Overload control (split QoS-outcome accounting) */
    /// @{
    size_t overload_deferred = 0; ///< arrivals/retries pushed back.
    size_t shed = 0;              ///< terminal load sheds.
    size_t brownouts = 0;         ///< best-effort degradations.
    size_t brownout_restores = 0; ///< degradations undone.
    size_t overload_transitions = 0; ///< detector state changes.
    size_t autoscale_updates = 0; ///< policy control steps.
    /// @}
};

/** The Quasar cluster manager. */
class QuasarManager : public driver::ClusterManager
{
  public:
    QuasarManager(sim::Cluster &cluster,
                  workload::WorkloadRegistry &registry,
                  QuasarConfig cfg = {});

    /**
     * Exhaustively profile `count` representative workloads offline to
     * anchor the classification matrices (paper: 20-30 types).
     */
    void seedOffline(workload::WorkloadFactory &factory,
                     size_t count = 24, double t = 0.0);
    /** Seed with caller-provided workloads. */
    void seedOffline(const std::vector<workload::Workload> &seeds,
                     double t = 0.0);

    void onSubmit(WorkloadId id, double t) override;
    void onTick(double t) override;
    void onCompletion(WorkloadId id, double t) override;
    void onServerDown(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override;
    void onServerUp(ServerId sid, double t) override;
    void onServerDegraded(ServerId sid, double speed_factor,
                          double t) override;
    std::string name() const override { return "quasar"; }

    /** @name Introspection */
    /// @{
    const WorkloadEstimate *estimateFor(WorkloadId id) const;
    const AdmissionQueue &admission() const { return admission_; }
    /** Profiling + classification + queue wait charged to id. */
    double overheadSeconds(WorkloadId id) const;
    const QuasarStats &stats() const { return stats_; }
    /** Displacement-to-re-placement times of recovered workloads. */
    const stats::Samples &recoveryTimes() const
    {
        return recovery_times_;
    }
    const profiling::Profiler &profiler() const { return profiler_; }
    Classifier &classifier() { return classifier_; }
    const GreedyScheduler &scheduler() const { return scheduler_; }
    /** Overload controller (state machine, shed/boost decisions,
     *  decision hash, time-in-state). */
    const OverloadController &overload() const { return overload_; }
    /// @}

  private:
    double requiredPerf(const workload::Workload &w, double t) const;
    bool trySchedule(WorkloadId id, double t, bool requeue_on_fail);
    /** Re-place a workload displaced by a crash (no re-profiling). */
    void replaceDisplaced(WorkloadId id, double t);
    /** Close the recovery-time window for a re-placed workload. */
    void noteRecovered(WorkloadId id, double t);
    void applyAllocation(workload::Workload &w, const Allocation &alloc,
                         double t);
    void releaseWorkload(WorkloadId id);
    /** Predicted absolute perf of the current placement. */
    double predictCurrent(const workload::Workload &w,
                          const WorkloadEstimate &est) const;
    bool tryScaleUp(workload::Workload &w, const WorkloadEstimate &est,
                    double required, double t);
    /**
     * Grant private partitions on sources where the workload's
     * contention exceeds its classified tolerance (when enabled).
     */
    bool tryPartition(workload::Workload &w,
                      const WorkloadEstimate &est);
    bool tryScaleOut(workload::Workload &w, const WorkloadEstimate &est,
                     double required, double t);
    void shrinkAllocation(workload::Workload &w,
                          const WorkloadEstimate &est, double required,
                          double t);
    void adjust(workload::Workload &w, double t);
    void reclassifyAndReschedule(workload::Workload &w, double t);
    EstimateLookup estimateLookup() const;

    /**
     * One admission retry pass (tick / completion / server-up), with
     * overload gating: due entries are shed, re-deferred, or retried.
     * ignore_backoff drains everything (fresh capacity appeared).
     */
    void drainAdmission(double t, bool ignore_backoff);

    /** @name Overload control (core/overload.hh) */
    /// @{
    /** Terminal shed of a queued workload (accounted, never lost). */
    void shedWorkload(workload::Workload &w, double t);
    /** Degrade placed best-effort work while Overloaded, restore it
     *  once the detector is back to Normal. */
    void applyBrownout(double t);
    void restoreBrownout(double t);
    /** One autoscale round over the active placed services. */
    void autoscaleServices(double t);
    /// @}

    sim::Cluster &cluster_;
    workload::WorkloadRegistry &registry_;
    QuasarConfig cfg_;
    profiling::Profiler profiler_;
    Classifier classifier_;
    GreedyScheduler scheduler_;
    Monitor monitor_;
    AdmissionQueue admission_;
    OverloadController overload_;
    stats::Rng rng_;

    std::unordered_map<WorkloadId, WorkloadEstimate> estimates_;
    std::unordered_map<WorkloadId, int> strikes_;
    std::unordered_map<WorkloadId, double> last_adjust_;
    std::unordered_map<WorkloadId, double> last_reschedule_;
    std::unordered_map<WorkloadId, LoadPredictor> predictors_;
    std::unordered_map<WorkloadId, double> overhead_s_;
    /** Displacement time of workloads awaiting re-placement. */
    std::unordered_map<WorkloadId, double> displaced_at_;
    /** Pre-brownout share sizes, for the restore path. std::map so
     *  the apply/restore walk order is deterministic. */
    struct BrownoutShare
    {
        ServerId server;
        int cores;
        double memory_gb;
    };
    std::map<WorkloadId, std::vector<BrownoutShare>> brownout_saved_;
    stats::Samples recovery_times_;
    double last_proactive_ = 0.0;
    QuasarStats stats_;
};

} // namespace quasar::core

