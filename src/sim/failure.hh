/**
 * @file
 * Fault injection (Sec. 4.4 fault tolerance): scripted and
 * seeded-stochastic machine failures delivered through the simulation
 * EventQueue. Event kinds cover the full machine-churn spectrum a
 * co-located cluster sees — single-server crashes, recoveries,
 * whole-fault-zone outages (rack/PDU), and degradations (a sick node
 * that keeps running at a reduced speed factor).
 *
 * The injector applies the state transition to the Server and hands
 * the consequences to a FaultListener (in practice the
 * ScenarioDriver), which settles workload progress, drops in-flight
 * shares, and notifies the cluster manager. All stochastic events are
 * pre-generated from the config seed at arm() time, so a run is
 * bit-identical for a fixed seed.
 */

#pragma once

#include <vector>

#include "common/types.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "stats/rng.hh"

namespace quasar::sim
{

/** What a fault event does to its target. */
enum class FaultKind
{
    ServerCrash,    ///< machine dies; shares are dropped.
    ServerRecovery, ///< machine returns, empty and at full speed.
    ServerDegrade,  ///< machine keeps running at reduced speed.
    ZoneOutage,     ///< every server in a fault zone crashes.
    ZoneRecovery,   ///< every server in a fault zone recovers.
};

/** One scheduled fault. */
struct FaultEvent
{
    double time = 0.0;
    FaultKind kind = FaultKind::ServerCrash;
    ServerId server = 0;       ///< target machine (server events).
    int zone = -1;             ///< target zone (zone events).
    double speed_factor = 0.5; ///< degraded speed (ServerDegrade).
};

/**
 * Receives fault notifications as they fire. Default implementations
 * are no-ops so tests can observe only what they care about.
 */
class FaultListener
{
  public:
    virtual ~FaultListener() = default;

    /**
     * Called immediately before any state transition of a server,
     * while its shares are still in place — the driver settles batch
     * progress at the pre-fault rate here.
     */
    virtual void beforeServerStateChange(ServerId, double) {}

    /** The server crashed; the listed workloads held resources on it. */
    virtual void serverFailed(ServerId, const std::vector<WorkloadId> &,
                              double)
    {
    }

    /** The server came back up (empty, full speed). */
    virtual void serverRecovered(ServerId, double) {}

    /** The server degraded to the given speed factor. */
    virtual void serverDegraded(ServerId, double, double) {}
};

/** Stochastic churn knobs (all optional; 0 MTTF disables). */
struct FaultInjectorConfig
{
    /** Mean time to failure per server, seconds (0 = no churn). */
    double mttf_s = 0.0;
    /** Mean time to repair, seconds. */
    double mttr_s = 600.0;
    /** Probability a stochastic failure degrades instead of crashing. */
    double degrade_fraction = 0.0;
    /** Generate stochastic events in [0, horizon_s). */
    double horizon_s = 0.0;
    uint64_t seed = 0xFA17;
};

/** Counters for reports and invariant checks. */
struct FaultStats
{
    size_t crashes = 0;      ///< servers actually taken down.
    size_t recoveries = 0;   ///< servers actually brought back.
    size_t degradations = 0; ///< servers actually degraded.
    size_t zone_outages = 0; ///< zone events fired.
};

/** Schedules faults and applies them to the cluster. */
class FaultInjector
{
  public:
    explicit FaultInjector(Cluster &cluster,
                           FaultInjectorConfig cfg = {})
        : cluster_(cluster), cfg_(cfg) {}

    /** @name Scripted events (call before arm()) */
    /// @{
    void crashServer(double t, ServerId sid);
    void recoverServer(double t, ServerId sid);
    void degradeServer(double t, ServerId sid, double speed_factor);
    void crashZone(double t, int zone);
    void recoverZone(double t, int zone);
    /// @}

    /**
     * Generate stochastic events (per config) and schedule everything
     * onto the queue, delivering consequences to the listener. Call
     * once, before running the queue; the listener must outlive it.
     */
    void arm(EventQueue &events, FaultListener &listener);

    /** All events (scripted + generated), in schedule order. */
    const std::vector<FaultEvent> &plan() const { return plan_; }

    const FaultStats &stats() const { return stats_; }

  private:
    void apply(const FaultEvent &ev, double t, FaultListener &listener);
    void crashOne(ServerId sid, double t, FaultListener &listener);
    void recoverOne(ServerId sid, double t, FaultListener &listener);
    void generateStochastic();

    Cluster &cluster_;
    FaultInjectorConfig cfg_;
    std::vector<FaultEvent> plan_;
    FaultStats stats_;
    bool armed_ = false;
};

} // namespace quasar::sim

