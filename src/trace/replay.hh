/**
 * @file
 * Trace replay adapter: feeds a mapped trace into the scenario
 * driver through the same event-queue contract the churn engine
 * uses, so ingested cluster traces drive experiments exactly like
 * synthetic churn streams.
 *
 * Replay contract: the installed plan is a pure function of
 * (MappedTrace, seed) — arrivals, departures, phase changes, and the
 * drawn workload population never consult cluster, scheduler, or
 * manager state. Identical inputs therefore produce bit-identical
 * placements across scheduler modes (dirty / full_rescan) and across
 * repeated replays, which is what bench/trace_replay gates on.
 *
 * The canonical per-row demands steer the map (classification,
 * population rescale); within-class workload parameters (family,
 * dataset size, QPS) are drawn from the replayer's seeded factory
 * stream via churn::makeChurnWorkload, keeping trace populations on
 * the same catalogs as every other experiment.
 */

#pragma once

#include <vector>

#include "churn/churn.hh"
#include "trace/mapper.hh"

namespace quasar::trace
{

/**
 * Schedules one mapped trace onto a scenario driver. Build, call
 * install() once, then run the driver; the replayer must outlive the
 * run (the driver's queue holds no back-references, but the plan is
 * the run's provenance record).
 */
class TraceReplayer
{
  public:
    explicit TraceReplayer(MappedTrace trace, uint64_t seed = 1)
        : trace_(std::move(trace)), seed_(seed)
    {
    }

    /**
     * Register every mapped instance as a workload and schedule all
     * arrivals, departures, and phase changes onto the driver's
     * event queue. Call once per replayer.
     */
    void install(sim::Cluster &cluster,
                 workload::WorkloadRegistry &registry,
                 driver::ScenarioDriver &driver);

    /** The installed plan, in arrival order. */
    const std::vector<churn::ChurnItem> &plan() const { return plan_; }

    const churn::ChurnCounts &counts() const { return counts_; }

    /** The mapped trace this replayer was built from. */
    const MappedTrace &trace() const { return trace_; }

  private:
    MappedTrace trace_;
    uint64_t seed_ = 1;
    std::vector<churn::ChurnItem> plan_;
    churn::ChurnCounts counts_;
};

} // namespace quasar::trace
