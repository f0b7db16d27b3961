/**
 * @file
 * Dense row-major matrix with the operations needed by the
 * collaborative-filtering engine (SVD, PQ-reconstruction). Also defines
 * MaskedMatrix, a dense matrix paired with an observation mask, which is
 * the natural container for the sparse profiling matrices of the paper
 * (rows = workloads, columns = configurations, few observed entries per
 * row).
 */

#pragma once

#include <cstddef>
#include <vector>

namespace quasar::linalg
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    double &at(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

    double &operator()(size_t r, size_t c) { return at(r, c); }
    double operator()(size_t r, size_t c) const { return at(r, c); }

    /** C = this * other. */
    Matrix multiply(const Matrix &other) const;

    Matrix transpose() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Column c as a vector. */
    std::vector<double> column(size_t c) const;

    /** Row r as a vector. */
    std::vector<double> row(size_t r) const;

    void setRow(size_t r, const std::vector<double> &v);

    /** Max |a - b| over all entries; matrices must match in shape. */
    double maxAbsDiff(const Matrix &other) const;

    const std::vector<double> &data() const { return data_; }

    /** Row-major storage, rows() * cols() contiguous doubles. */
    double *raw() { return data_.data(); }
    const double *raw() const { return data_.data(); }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * A dense value matrix plus a boolean observation mask. Unobserved
 * entries hold 0 and are ignored by the completion algorithms.
 */
class MaskedMatrix
{
  public:
    MaskedMatrix() = default;
    MaskedMatrix(size_t rows, size_t cols);

    size_t rows() const { return values_.rows(); }
    size_t cols() const { return values_.cols(); }

    void set(size_t r, size_t c, double v);
    void clear(size_t r, size_t c);

    bool observed(size_t r, size_t c) const;
    double value(size_t r, size_t c) const;

    size_t numObserved() const { return num_observed_; }
    size_t observedInRow(size_t r) const;

    /** Mean of all observed entries (0 when nothing observed). */
    double observedMean() const;

    const Matrix &values() const { return values_; }

    /** Append an all-unobserved row; returns its index. */
    size_t appendRow();

  private:
    Matrix values_;
    std::vector<char> mask_;
    size_t num_observed_ = 0;
};

} // namespace quasar::linalg

