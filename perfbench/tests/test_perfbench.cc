/**
 * @file
 * Tests of the benchmark itself: the metric arithmetic on hand-built
 * inputs, the exclusive layer split on a fake manager with known timer
 * deltas, and proof that the forwarding manager changes no decision.
 *
 * Build and run from the repository root:
 *   cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
 *   cmake --build .bench_build/perfbench -j4 --target perfbench_tests
 *   .bench_build/perfbench/perfbench_tests
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "metrics.hh"
#include "timed_manager.hh"
#include "workloads.hh"

using namespace perfbench;
using quasar::WorkloadId;

namespace
{

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    std::vector<double> v = oneTo(100);
    std::reverse(v.begin(), v.end()); // order must not matter.
    EXPECT_EQ(percentile(v, 50.0), 50.0);
    EXPECT_EQ(percentile(v, 90.0), 90.0);
    EXPECT_EQ(percentile(v, 99.0), 99.0);
    EXPECT_EQ(percentile(v, 100.0), 100.0);
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile(v, 250.0), 100.0);
    // Between ranks the next sample up is taken, never interpolated.
    EXPECT_EQ(percentile(oneTo(10), 55.0), 6.0);
    EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
    EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, SamplesBeyondDecideWhichPercentileIsReported)
{
    // p99 has ten samples beyond it from 1,000 samples on.
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(samplesBeyond(100, 99.0), 1u);
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_EQ(samplesBeyond(60, 99.0), 0u);
    EXPECT_EQ(samplesBeyond(0, 50.0), 0u);
    EXPECT_EQ(samplesBeyond(5743, 50.0), 2871u);
}

TEST(Percentile, IndexwiseMedianTakesEachStepsMedian)
{
    // Three replays of a four-step run; a slow spell hits a different
    // step in each, and each step's median drops it.
    std::vector<double> m = indexwiseMedian({{1.0, 2.0, 9.0, 4.0},
                                             {1.0, 8.0, 3.0, 4.0},
                                             {7.0, 2.0, 3.0, 4.0}});
    EXPECT_EQ(m, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
    // An even count takes the lower middle (nearest rank).
    EXPECT_EQ(indexwiseMedian({{2.0}, {1.0}}), std::vector<double>{1.0});
    EXPECT_EQ(indexwiseMedian({{5.0, 6.0}}), (std::vector<double>{5.0, 6.0}));
    EXPECT_THROW(indexwiseMedian({}), std::invalid_argument);
    EXPECT_THROW(indexwiseMedian({{1.0, 2.0}, {1.0}}),
                 std::invalid_argument);
}

TEST(Percentile, TrimmedMeanAveragesTheMiddleHalf)
{
    // Four streams, one rare and costly: the middle two are averaged.
    EXPECT_DOUBLE_EQ(trimmedMean({1.0, 4.6, 1.2, 0.9}), 1.1);
    EXPECT_DOUBLE_EQ(trimmedMean({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(trimmedMean({3.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(trimmedMean({5.0, 1.0, 3.0}), 3.0);
    // Twelve: three dropped from each end, six averaged.
    std::vector<double> v = oneTo(12);
    EXPECT_DOUBLE_EQ(trimmedMean(v), 6.5);
    v.back() = 1000.0;
    EXPECT_DOUBLE_EQ(trimmedMean(v), 6.5);
    EXPECT_TRUE(std::isnan(trimmedMean({})));
}

TEST(FailedFraction, ShedAndNeverPlacedOverArrivals)
{
    quasar::workload::WorkloadRegistry reg;
    auto add = [&reg](double arrive, double placed, bool completed,
                      bool killed, bool shed) {
        quasar::workload::Workload w;
        w.arrival_time = arrive;
        w.first_placed_at = placed;
        w.completed = completed;
        w.killed = killed;
        w.shed = shed;
        return reg.add(std::move(w));
    };
    std::vector<WorkloadId> ids = {
        add(0.0, 5.0, true, false, false),   // placed, completed
        add(1.0, 1.0, false, true, false),   // placed, departed
        add(2.0, 32.0, false, false, false), // placed, still active
        add(3.0, -1.0, false, true, true),   // shed from the queue
        add(4.0, -1.0, false, false, false), // queued at the horizon
        add(5.0, -1.0, false, true, false),  // departed while queued
        add(9.0, 7.5, true, false, false),   // stamped before arrival
    };
    Outcomes o = outcomesOf(reg, ids);
    EXPECT_EQ(o.arrivals, 7u);
    EXPECT_EQ(o.completed, 2u);
    EXPECT_EQ(o.departed, 2u);
    EXPECT_EQ(o.shed, 1u);
    EXPECT_EQ(o.active, 2u);
    EXPECT_EQ(o.never_placed, 2u);
    EXPECT_EQ(o.early_placements, 1u);
    EXPECT_DOUBLE_EQ(failedFraction(o), 3.0 / 7.0);
    ASSERT_EQ(o.waits_s.size(), 4u);
    EXPECT_EQ(percentile(o.waits_s, 50.0), 0.0);
    EXPECT_EQ(percentile(o.waits_s, 75.0), 5.0);
    EXPECT_EQ(percentile(o.waits_s, 90.0), 30.0);
    EXPECT_EQ(failedFraction(Outcomes{}), 0.0);

    // Pooling two streams adds their counts and waits.
    Outcomes pooled = o;
    pooled.add(o);
    EXPECT_EQ(pooled.arrivals, 14u);
    EXPECT_EQ(pooled.waits_s.size(), 8u);
    EXPECT_EQ(pooled.early_placements, 2u);
    EXPECT_DOUBLE_EQ(failedFraction(pooled), failedFraction(o));
}

TEST(ExclusiveSplit, HandBuiltSpansSumToWall)
{
    std::vector<Span> spans = {
        {.call = Call::Submit, .start_s = 0.0, .end_s = 1.0,
         .classify_s = 0.5, .schedule_s = 0.25, .rank_s = 0.125,
         .place_s = 0.0625},
        {.call = Call::Tick, .start_s = 2.0, .end_s = 4.0,
         .classify_s = 0.5, .schedule_s = 0.25, .rank_s = 0.5,
         .place_s = 0.25}, // adapt called the scheduler outside
                           // schedule_time: rank + place > schedule.
        {.call = Call::Completion, .start_s = 5.0, .end_s = 5.5,
         .schedule_s = 0.5, .rank_s = 0.25, .place_s = 0.25},
        // Nested call: already inside its parent's interval and
        // timer deltas, so it adds nothing.
        {.call = Call::Fault, .start_s = 5.1, .end_s = 5.2, .parent = 2,
         .schedule_s = 0.05},
    };
    Exclusive e = exclusiveSplit(8.0, spans);
    EXPECT_DOUBLE_EQ(e.driver_self, 8.0 - 1.0 - 2.0 - 0.5);
    EXPECT_DOUBLE_EQ(e.call_self[size_t(Call::Submit)], 0.25);
    EXPECT_DOUBLE_EQ(e.call_self[size_t(Call::Tick)], 2.0 - 0.5 - 0.75);
    EXPECT_DOUBLE_EQ(e.call_self[size_t(Call::Completion)], 0.0);
    EXPECT_DOUBLE_EQ(e.call_self[size_t(Call::Fault)], 0.0);
    EXPECT_DOUBLE_EQ(e.classify, 1.0);
    EXPECT_DOUBLE_EQ(e.rank, 0.875);
    EXPECT_DOUBLE_EQ(e.place, 0.5625);
    EXPECT_DOUBLE_EQ(e.schedule_self, 0.0625);
    EXPECT_GE(e.minPart(), 0.0);
    EXPECT_DOUBLE_EQ(e.sum(), 8.0);
}

namespace
{

/**
 * A manager that spins for a fixed host time per call and advances a
 * fake set of public timers by known amounts inside that time.
 */
class FakeManager : public quasar::driver::ClusterManager
{
  public:
    LayerClock clock;

    void onSubmit(WorkloadId, double) override
    {
        work(0.002, 0.0008, 0.0004, 0.0001, 0.0002);
    }
    void onTick(double) override
    {
        // The adapt path: scheduler time outside schedule_time.
        work(0.003, 0.0005, 0.0001, 0.0010, 0.0008);
    }
    void onCompletion(WorkloadId, double) override
    {
        work(0.001, 0.0, 0.0006, 0.0002, 0.0003);
    }
    std::string name() const override { return "fake"; }

  private:
    static void spin(double s)
    {
        auto t0 = std::chrono::steady_clock::now();
        while (std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count() < s) {
        }
    }
    void work(double busy, double cls, double sched, double rank,
              double place)
    {
        spin(busy);
        clock.classify_s += cls;
        clock.schedule_s += sched;
        clock.rank_s += rank;
        clock.place_s += place;
    }
};

} // namespace

TEST(ExclusiveSplit, FakeManagerSelfTimesNonNegativeAndSumToWall)
{
    FakeManager fake;
    TimedManager timed(fake, [&fake] { return fake.clock; }, true);
    auto t0 = std::chrono::steady_clock::now();
    timed.startRun();
    for (int i = 0; i < 5; ++i) {
        timed.onSubmit(WorkloadId(i), 0.0);
        timed.onTick(0.0);
        timed.onCompletion(WorkloadId(i), 0.0);
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    ASSERT_EQ(timed.spans().size(), 15u);
    EXPECT_EQ(timed.totals(Call::Submit).calls, 5u);
    EXPECT_EQ(timed.totals(Call::Fault).calls, 0u);
    EXPECT_EQ(timed.submitSeconds().size(), 5u);
    EXPECT_EQ(timed.tickSeconds().size(), 5u);
    for (const Span &s : timed.spans()) {
        EXPECT_EQ(s.parent, -1);
        EXPECT_LE(s.start_s, s.end_s);
    }

    Exclusive e = exclusiveSplit(wall, timed.spans());
    EXPECT_GE(e.minPart(), 0.0);
    EXPECT_NEAR(e.sum(), wall, 1e-12);
    EXPECT_NEAR(e.classify, 5 * (0.0008 + 0.0005), 1e-12);
    EXPECT_NEAR(e.rank, 5 * (0.0001 + 0.0010 + 0.0002), 1e-12);
    EXPECT_NEAR(e.place, 5 * (0.0002 + 0.0008 + 0.0003), 1e-12);
    // onSubmit: 2 ms spun, 0.8 classify + 0.4 schedule inside it.
    EXPECT_GE(e.call_self[size_t(Call::Submit)], 5 * 0.0008 - 1e-9);
    // onTick: the scheduler's lower bound is rank + place = 1.8 ms.
    EXPECT_NEAR(e.schedule_self, 5 * (0.0004 - 0.0003 + 0.0 + 0.0001),
                1e-12);
}

TEST(ExclusiveSplit, UntracedWrapperKeepsNoSpans)
{
    FakeManager fake;
    TimedManager timed(fake, [&fake] { return fake.clock; }, false);
    timed.onSubmit(WorkloadId(1), 0.0);
    timed.onTick(0.0);
    EXPECT_TRUE(timed.spans().empty());
    EXPECT_EQ(timed.totals(Call::Tick).calls, 1u);
    EXPECT_GT(timed.totals(Call::Submit).busy_s, 0.0019);
}

TEST(TimingWrapper, StepsAlternateDriverWorkAndCallsAndSumToTheRun)
{
    FakeManager fake;
    TimedManager timed(fake, [&fake] { return fake.clock; }, false);
    auto t0 = std::chrono::steady_clock::now();
    timed.startRun();
    timed.onSubmit(WorkloadId(1), 0.0);
    timed.onTick(0.0);
    timed.onCompletion(WorkloadId(1), 0.0);
    timed.endRun();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    const std::vector<double> &steps = timed.stepSeconds();
    ASSERT_EQ(steps.size(), 2u * 3u + 1u);
    EXPECT_EQ(steps[1], timed.submitSeconds()[0]);
    EXPECT_EQ(steps[3], timed.tickSeconds()[0]);
    EXPECT_EQ(steps[5], timed.totals(Call::Completion).busy_s);
    double sum = 0.0;
    for (double s : steps) {
        EXPECT_GE(s, 0.0);
        sum += s;
    }
    EXPECT_LE(sum, wall);
    EXPECT_GT(sum, 0.9 * wall);

    // A new run starts a new list.
    timed.startRun();
    timed.endRun();
    EXPECT_EQ(timed.stepSeconds().size(), 1u);
}

namespace
{

/** A short flash-crowd stream: the crowd, shedding and brownout all
 *  happen, at a fraction of the benchmark's size. */
WorkloadSpec
shortFlashCrowd()
{
    WorkloadSpec spec = workloadSpec("flash-crowd", 20260808, "");
    spec.servers = 200;
    spec.horizon_s = 660.0;
    return spec;
}

} // namespace

TEST(TimingWrapper, ChangesNoDecision)
{
    WorkloadSpec spec = shortFlashCrowd();
    RepResult direct = runRep(spec, 0, Wiring::Direct);
    RepResult untraced = runRep(spec, 0, Wiring::Untraced);
    RepResult traced = runRep(spec, 0, Wiring::Traced);
    for (const RepResult *r : {&direct, &untraced, &traced})
        EXPECT_TRUE(r->errors.empty()) << r->errors.front();

    // The controller did act, so its decision hash carries signal.
    EXPECT_GT(direct.stats.overload_transitions, 0u);
    EXPECT_GT(direct.outcomes.shed + direct.stats.overload_deferred, 0u);
    for (const RepResult *r : {&untraced, &traced}) {
        EXPECT_EQ(r->placement_hash, direct.placement_hash);
        EXPECT_EQ(r->decision_hash, direct.decision_hash);
        EXPECT_EQ(r->outcomes.waits_s, direct.outcomes.waits_s);
        EXPECT_EQ(r->stats.schedule_time.count,
                  direct.stats.schedule_time.count);
    }
    EXPECT_TRUE(direct.spans.empty());
    EXPECT_EQ(untraced.calls[size_t(Call::Submit)].calls,
              direct.outcomes.arrivals);
    EXPECT_EQ(traced.spans.size(),
              traced.calls[0].calls + traced.calls[1].calls +
                  traced.calls[2].calls + traced.calls[3].calls);
}

TEST(TimingWrapper, ChangesNoDecisionUnderChurnAndFaults)
{
    WorkloadSpec spec = workloadSpec("churn-10k", 20260806, "");
    spec.servers = 1000;
    spec.horizon_s = 300.0;
    RepResult direct = runRep(spec, 0, Wiring::Direct);
    RepResult traced = runRep(spec, 0, Wiring::Traced);
    EXPECT_TRUE(direct.errors.empty());
    EXPECT_TRUE(traced.errors.empty());
    EXPECT_EQ(traced.placement_hash, direct.placement_hash);
    EXPECT_EQ(traced.outcomes.waits_s, direct.outcomes.waits_s);
}

TEST(Workloads, TraceFixtureRejectsItsKnownRows)
{
    WorkloadSpec spec =
        workloadSpec("trace-google", 20260806, PERFBENCH_DATA_DIR);
    std::vector<std::string> errors;
    quasar::trace::TraceStream stream = parseTrace(spec, errors);
    EXPECT_TRUE(errors.empty()) << errors.front();
    EXPECT_EQ(stream.rows_rejected, 9u);
    EXPECT_FALSE(stream.events.empty());

    spec.expected_rejected_rows = 8;
    parseTrace(spec, errors);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("rejected 9 rows"), std::string::npos);
}

TEST(Workloads, UnknownNameIsRefused)
{
    EXPECT_THROW(workloadSpec("nope", 1, ""), std::invalid_argument);
}
