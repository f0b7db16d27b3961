/**
 * @file
 * Forwarding cluster manager: the benchmark's only view into the
 * manager. The scenario driver calls it in place of the real manager;
 * every call is forwarded unchanged and timed on the host clock.
 *
 * Two levels:
 *  - untraced: per-call host time only (per-kind call counts and busy
 *    time, the onSubmit and onTick duration samples, and the run's
 *    step times: each call and each stretch of driver work between
 *    calls);
 *  - traced: additionally reads the manager's public timers before and
 *    after each call and keeps one Span per call in memory, from which
 *    the exclusive layer split is computed after the run.
 *
 * The probe reads are outside the timed interval, so the per-call
 * durations of the two levels are comparable; what tracing adds shows
 * as driver self time and as the traced run's extra wall-clock.
 */

#pragma once

#include <array>
#include <chrono>
#include <functional>
#include <vector>

#include "driver/cluster_manager.hh"
#include "metrics.hh"

namespace perfbench
{

/** Cumulative host seconds of the manager's public timers. */
struct LayerClock
{
    double classify_s = 0.0;
    double schedule_s = 0.0;
    double rank_s = 0.0;
    double place_s = 0.0;
};

/** Count and host seconds of one kind of manager call. */
struct CallTotals
{
    uint64_t calls = 0;
    double busy_s = 0.0;
};

class TimedManager : public quasar::driver::ClusterManager
{
  public:
    using Probe = std::function<LayerClock()>;

    TimedManager(quasar::driver::ClusterManager &inner, Probe probe,
                 bool traced);

    /** Restart the run clock; span times are relative to it. */
    void startRun();
    /** Close the run's last stretch of driver work. */
    void endRun();

    void onSubmit(quasar::WorkloadId id, double t) override;
    void onTick(double t) override;
    void onCompletion(quasar::WorkloadId id, double t) override;
    void onServerDown(quasar::ServerId sid,
                      const std::vector<quasar::WorkloadId> &displaced,
                      double t) override;
    void onServerUp(quasar::ServerId sid, double t) override;
    void onServerDegraded(quasar::ServerId sid, double speed_factor,
                          double t) override;
    std::string name() const override { return inner_.name(); }

    const CallTotals &totals(Call c) const { return totals_[size_t(c)]; }
    const std::vector<double> &submitSeconds() const
    {
        return submit_s_;
    }
    const std::vector<double> &tickSeconds() const { return tick_s_; }
    /**
     * Host seconds of the run's steps, in order: driver work before
     * the first call, the call, driver work up to the next call, ...,
     * driver work after the last call. They sum to the run's time
     * between startRun() and endRun().
     */
    const std::vector<double> &stepSeconds() const { return step_s_; }
    /** Traced level only: one span per call, in call order. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** Run one forwarded call under the timer (and the probe). */
    template <typename F>
    void timed(Call kind, uint64_t workload, F &&forward);

    quasar::driver::ClusterManager &inner_;
    Probe probe_;
    bool traced_;
    Clock::time_point run_start_;
    Clock::time_point last_end_;
    int32_t open_span_ = -1;
    std::array<CallTotals, kCalls> totals_{};
    std::vector<double> submit_s_;
    std::vector<double> tick_s_;
    std::vector<double> step_s_;
    std::vector<Span> spans_;
};

} // namespace perfbench
