#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "driver/scenario.hh"

namespace perfbench
{

namespace
{

/** 1-based nearest rank of the p-th percentile of n samples. */
size_t
nearestRank(size_t n, double p)
{
    if (!(p > 0.0))
        return 1;
    p = std::min(p, 100.0);
    auto rank = size_t(std::ceil(p / 100.0 * double(n) - 1e-9));
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    size_t k = nearestRank(samples.size(), p) - 1;
    std::nth_element(samples.begin(), samples.begin() + ptrdiff_t(k),
                     samples.end());
    return samples[k];
}

size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
trimmedMean(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const size_t drop = values.size() / 4;
    double sum = 0.0;
    for (size_t i = drop; i < values.size() - drop; ++i)
        sum += values[i];
    return sum / double(values.size() - 2 * drop);
}

std::vector<double>
indexwiseMedian(const std::vector<std::vector<double>> &lists)
{
    if (lists.empty())
        throw std::invalid_argument("indexwiseMedian: no lists");
    const size_t n = lists.front().size();
    std::vector<double> out(n), column(lists.size());
    for (const std::vector<double> &l : lists)
        if (l.size() != n)
            throw std::invalid_argument(
                "indexwiseMedian: lists differ in length");
    for (size_t k = 0; k < n; ++k) {
        for (size_t j = 0; j < lists.size(); ++j)
            column[j] = lists[j][k];
        out[k] = median(column);
    }
    return out;
}

Outcomes
outcomesOf(const quasar::workload::WorkloadRegistry &registry,
           const std::vector<quasar::WorkloadId> &ids)
{
    using quasar::driver::WorkloadOutcome;
    Outcomes o;
    o.arrivals = ids.size();
    for (quasar::WorkloadId id : ids) {
        const quasar::workload::Workload &w = registry.get(id);
        switch (quasar::driver::outcomeOf(w)) {
        case WorkloadOutcome::Completed:
            ++o.completed;
            break;
        case WorkloadOutcome::Departed:
            ++o.departed;
            break;
        case WorkloadOutcome::Shed:
            ++o.shed;
            break;
        case WorkloadOutcome::Active:
            ++o.active;
            break;
        }
        if (w.first_placed_at >= 0.0) {
            double wait = w.first_placed_at - w.arrival_time;
            if (wait < 0.0) {
                ++o.early_placements;
                wait = 0.0;
            }
            o.waits_s.push_back(wait);
        } else if (!w.shed)
            ++o.never_placed;
    }
    return o;
}

void
Outcomes::add(const Outcomes &o)
{
    arrivals += o.arrivals;
    completed += o.completed;
    departed += o.departed;
    shed += o.shed;
    active += o.active;
    never_placed += o.never_placed;
    waits_s.insert(waits_s.end(), o.waits_s.begin(), o.waits_s.end());
    early_placements += o.early_placements;
}

double
failedFraction(const Outcomes &o)
{
    return o.arrivals ? double(o.shed + o.never_placed) /
                            double(o.arrivals)
                      : 0.0;
}

const char *
callName(Call c)
{
    switch (c) {
    case Call::Submit:
        return "core.on_submit";
    case Call::Tick:
        return "core.on_tick";
    case Call::Completion:
        return "core.on_completion";
    case Call::Fault:
        return "core.on_fault";
    }
    return "?";
}

double
Span::scheduleInclusive() const
{
    return std::max(schedule_s, rank_s + place_s);
}

double
Exclusive::sum() const
{
    double s = driver_self + classify + schedule_self + rank + place;
    for (double c : call_self)
        s += c;
    return s;
}

double
Exclusive::minPart() const
{
    double m = std::min({driver_self, classify, schedule_self, rank,
                         place});
    for (double c : call_self)
        m = std::min(m, c);
    return m;
}

Exclusive
exclusiveSplit(double wall_s, const std::vector<Span> &spans)
{
    Exclusive e;
    double calls_busy = 0.0;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            continue; // nested spans are inside their parent's time.
        double sched = s.scheduleInclusive();
        calls_busy += s.duration();
        e.call_self[size_t(s.call)] +=
            s.duration() - s.classify_s - sched;
        e.classify += s.classify_s;
        e.schedule_self += sched - s.rank_s - s.place_s;
        e.rank += s.rank_s;
        e.place += s.place_s;
    }
    e.driver_self = wall_s - calls_busy;
    return e;
}

} // namespace perfbench
