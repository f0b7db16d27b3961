/**
 * @file
 * Time-series recording for utilization traces. Benches use these to
 * emit the per-server heatmap data of the paper's Figs. 7, 10 and 11
 * and the allocated-vs-used curves of Fig. 11d.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace quasar::stats
{

/** A single (time, value) sample stream. */
class TimeSeries
{
  public:
    void record(double t, double v);

    size_t size() const { return times_.size(); }
    bool empty() const { return times_.empty(); }
    double timeAt(size_t i) const { return times_[i]; }
    double valueAt(size_t i) const { return values_[i]; }

    const std::vector<double> &times() const { return times_; }
    const std::vector<double> &values() const { return values_; }

    /** Mean of values with sample time in [t0, t1). */
    double meanOver(double t0, double t1) const;

    /** Mean of all values. */
    double mean() const;

    /** Last recorded value, or fallback when empty. */
    double last(double fallback = 0.0) const;

  private:
    std::vector<double> times_;
    std::vector<double> values_;
};

/**
 * One series per server; supports window averaging for heatmap rows and
 * text rendering of the kind used in Figs. 7/10/11.
 */
class UtilizationGrid
{
  public:
    explicit UtilizationGrid(size_t num_servers) : series_(num_servers) {}

    void record(size_t server, double t, double util);

    const TimeSeries &server(size_t i) const { return series_[i]; }

    /** Per-server mean utilization over a time window. */
    std::vector<double> windowMeans(double t0, double t1) const;

    /** Grand mean across servers and all samples. */
    double overallMean() const;

    /**
     * ASCII heatmap: one row per server, one column per time bucket,
     * glyphs scaled 0-100%.
     */
    std::string renderHeatmap(double t0, double t1, size_t buckets) const;

  private:
    std::vector<TimeSeries> series_;
};

} // namespace quasar::stats

