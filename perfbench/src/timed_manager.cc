#include "timed_manager.hh"

namespace perfbench
{

TimedManager::TimedManager(quasar::driver::ClusterManager &inner,
                           Probe probe, bool traced)
    : inner_(inner), probe_(std::move(probe)), traced_(traced),
      run_start_(Clock::now()), last_end_(run_start_)
{
}

void
TimedManager::startRun()
{
    run_start_ = last_end_ = Clock::now();
    step_s_.clear();
}

void
TimedManager::endRun()
{
    step_s_.push_back(
        std::chrono::duration<double>(Clock::now() - last_end_).count());
}

template <typename F>
void
TimedManager::timed(Call kind, uint64_t workload, F &&forward)
{
    LayerClock before;
    int32_t index = -1;
    int32_t parent = open_span_;
    if (traced_) {
        before = probe_();
        index = int32_t(spans_.size());
        spans_.push_back(Span{.call = kind, .parent = parent,
                              .workload = workload});
        open_span_ = index;
    }
    Clock::time_point t0 = Clock::now();
    forward();
    Clock::time_point t1 = Clock::now();
    double busy = std::chrono::duration<double>(t1 - t0).count();
    step_s_.push_back(std::chrono::duration<double>(t0 - last_end_).count());
    step_s_.push_back(busy);
    last_end_ = t1;

    CallTotals &tot = totals_[size_t(kind)];
    ++tot.calls;
    tot.busy_s += busy;
    if (kind == Call::Submit)
        submit_s_.push_back(busy);
    else if (kind == Call::Tick)
        tick_s_.push_back(busy);

    if (traced_) {
        LayerClock after = probe_();
        Span &s = spans_[size_t(index)];
        s.start_s = std::chrono::duration<double>(t0 - run_start_).count();
        s.end_s = std::chrono::duration<double>(t1 - run_start_).count();
        s.classify_s = after.classify_s - before.classify_s;
        s.schedule_s = after.schedule_s - before.schedule_s;
        s.rank_s = after.rank_s - before.rank_s;
        s.place_s = after.place_s - before.place_s;
        open_span_ = parent;
    }
}

void
TimedManager::onSubmit(quasar::WorkloadId id, double t)
{
    timed(Call::Submit, uint64_t(id), [&] { inner_.onSubmit(id, t); });
}

void
TimedManager::onTick(double t)
{
    timed(Call::Tick, 0, [&] { inner_.onTick(t); });
}

void
TimedManager::onCompletion(quasar::WorkloadId id, double t)
{
    timed(Call::Completion, uint64_t(id),
          [&] { inner_.onCompletion(id, t); });
}

void
TimedManager::onServerDown(quasar::ServerId sid,
                           const std::vector<quasar::WorkloadId> &displaced,
                           double t)
{
    timed(Call::Fault, 0,
          [&] { inner_.onServerDown(sid, displaced, t); });
}

void
TimedManager::onServerUp(quasar::ServerId sid, double t)
{
    timed(Call::Fault, 0, [&] { inner_.onServerUp(sid, t); });
}

void
TimedManager::onServerDegraded(quasar::ServerId sid, double speed_factor,
                               double t)
{
    timed(Call::Fault, 0,
          [&] { inner_.onServerDegraded(sid, speed_factor, t); });
}

} // namespace perfbench
