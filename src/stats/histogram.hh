/**
 * @file
 * Fixed-bin histogram and empirical CDF utilities used by the benches
 * to render the paper's distribution figures (Fig. 1c, Fig. 8e, Fig. 9
 * latency CDFs) as text rows.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace quasar::stats
{

/** Equal-width histogram over [lo, hi); out-of-range samples clamp. */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins);

    void add(double x, double weight = 1.0);

    double binLo(size_t i) const;
    double binHi(size_t i) const;
    double count(size_t i) const { return counts_[i]; }
    double total() const { return total_; }

    /** Fraction of mass in bins with upper edge <= x (empirical CDF). */
    double cdfAt(double x) const;

    /** CDF sampled at each bin edge, as (edge, fraction) pairs. */
    std::vector<std::pair<double, double>> cdfPoints() const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<double> counts_;
    double total_ = 0.0;
};

/** Render samples as an ASCII CDF table with the given column labels. */
std::string formatCdfTable(const std::vector<double> &values,
                           const std::string &value_label,
                           size_t rows = 10);

} // namespace quasar::stats

