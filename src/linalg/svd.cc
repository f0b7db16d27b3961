#include "linalg/svd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>

#include "stats/rng.hh"

namespace quasar::linalg
{

Matrix
SvdResult::reconstruct() const
{
    Matrix out(u.rows(), v.rows());
    for (size_t i = 0; i < u.rows(); ++i)
        for (size_t j = 0; j < v.rows(); ++j) {
            double acc = 0.0;
            for (size_t k = 0; k < singular.size(); ++k)
                acc += u.at(i, k) * singular[k] * v.at(j, k);
            out.at(i, j) = acc;
        }
    return out;
}

size_t
SvdResult::effectiveRank(double rel_tol) const
{
    if (singular.empty())
        return 0;
    double cutoff = singular.front() * rel_tol;
    size_t r = 0;
    for (double s : singular)
        if (s > cutoff)
            ++r;
    return r;
}

namespace
{

/**
 * One-sided Jacobi on a tall m x n matrix (m >= n) held column-major
 * in w: orthogonalize the columns of W = A*V by plane rotations,
 * accumulating V.
 *
 * Column-major storage makes every column a contiguous run, so the
 * rotation loops are element-wise over two disjoint arrays and
 * vectorize without changing a bit; the alpha/beta/gamma sums keep
 * their serial i order. A pair found orthogonal is skipped until one
 * of its columns rotates: its sums are a function of the two columns
 * alone, so it would be found orthogonal again.
 */
SvdResult
jacobiColumnMajor(std::vector<double> w, size_t m, size_t n,
                  size_t max_rank, double tol, size_t max_sweeps)
{
    assert(m >= n && w.size() == m * n);

    std::vector<double> v(n * n, 0.0); // column-major too
    for (size_t i = 0; i < n; ++i)
        v[i * n + i] = 1.0;

    // changed[j]: rotation count when column j last rotated;
    // settled[p*n+q]: 1 + rotation count when the pair was last
    // found orthogonal (0: never). The pair is still orthogonal
    // while neither column has rotated since.
    uint64_t rotations = 0;
    std::vector<uint64_t> changed(n, 0);
    std::vector<uint64_t> settled(n * n, 0);

    for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
        bool rotated = false;
        for (size_t p = 0; p + 1 < n; ++p) {
            double *__restrict wp = w.data() + p * m;
            double *__restrict vp = v.data() + p * n;
            for (size_t q = p + 1; q < n; ++q) {
                uint64_t &clean = settled[p * n + q];
                if (clean > changed[p] && clean > changed[q])
                    continue;
                double *__restrict wq = w.data() + q * m;
                double *__restrict vq = v.data() + q * n;
                double alpha = 0.0, beta = 0.0, gamma = 0.0;
                for (size_t i = 0; i < m; ++i) {
                    alpha += wp[i] * wp[i];
                    beta += wq[i] * wq[i];
                    gamma += wp[i] * wq[i];
                }
                if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta) ||
                    gamma == 0.0) {
                    clean = rotations + 1;
                    continue;
                }
                rotated = true;
                ++rotations;
                changed[p] = changed[q] = rotations;
                double zeta = (beta - alpha) / (2.0 * gamma);
                double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                           (std::fabs(zeta) +
                            std::sqrt(1.0 + zeta * zeta));
                double c = 1.0 / std::sqrt(1.0 + t * t);
                double s = c * t;
                for (size_t i = 0; i < m; ++i) {
                    double a = wp[i], b = wq[i];
                    wp[i] = c * a - s * b;
                    wq[i] = s * a + c * b;
                }
                for (size_t i = 0; i < n; ++i) {
                    double a = vp[i], b = vq[i];
                    vp[i] = c * a - s * b;
                    vq[i] = s * a + c * b;
                }
            }
        }
        if (!rotated)
            break;
    }

    // Singular values are column norms of W; sort descending.
    std::vector<double> norms(n);
    for (size_t j = 0; j < n; ++j) {
        const double *wj = w.data() + j * m;
        double s = 0.0;
        for (size_t i = 0; i < m; ++i)
            s += wj[i] * wj[i];
        norms[j] = std::sqrt(s);
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return norms[x] > norms[y]; });

    size_t rank = (max_rank == 0) ? n : std::min(max_rank, n);

    SvdResult out;
    out.u = Matrix(m, rank);
    out.v = Matrix(n, rank);
    out.singular.resize(rank);
    for (size_t k = 0; k < rank; ++k) {
        size_t j = order[k];
        double s = norms[j];
        out.singular[k] = s;
        double inv = (s > 0.0) ? 1.0 / s : 0.0;
        const double *wj = w.data() + j * m;
        const double *vj = v.data() + j * n;
        for (size_t i = 0; i < m; ++i)
            out.u.at(i, k) = wj[i] * inv;
        for (size_t i = 0; i < n; ++i)
            out.v.at(i, k) = vj[i];
    }
    return out;
}

} // namespace

namespace
{

/** Orthonormalize the columns of y in place (modified Gram-Schmidt). */
void
orthonormalize(Matrix &y)
{
    for (size_t j = 0; j < y.cols(); ++j) {
        for (size_t k = 0; k < j; ++k) {
            double dot = 0.0;
            for (size_t i = 0; i < y.rows(); ++i)
                dot += y.at(i, j) * y.at(i, k);
            for (size_t i = 0; i < y.rows(); ++i)
                y.at(i, j) -= dot * y.at(i, k);
        }
        double norm = 0.0;
        for (size_t i = 0; i < y.rows(); ++i)
            norm += y.at(i, j) * y.at(i, j);
        norm = std::sqrt(norm);
        if (norm > 1e-12) {
            for (size_t i = 0; i < y.rows(); ++i)
                y.at(i, j) /= norm;
        }
    }
}

} // namespace

SvdResult
randomizedSvd(const Matrix &a, size_t rank, size_t power_iters,
              uint64_t seed)
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    const size_t k = std::min({rank, m, n});
    assert(k > 0);

    // Gaussian sketch omega (n x k), y = a * omega.
    stats::Rng rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    Matrix omega(n, k);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < k; ++j)
            omega.at(i, j) = gauss(rng.engine());

    Matrix y = a.multiply(omega);
    orthonormalize(y);
    Matrix at = a.transpose();
    for (size_t it = 0; it < power_iters; ++it) {
        Matrix z = at.multiply(y);
        orthonormalize(z);
        y = a.multiply(z);
        orthonormalize(y);
    }

    // b = y^T a  (k x n); exact SVD of the small matrix.
    Matrix b = y.transpose().multiply(a);
    SvdResult small = svd(b, k);

    SvdResult out;
    out.u = y.multiply(small.u); // m x k
    out.singular = std::move(small.singular);
    out.v = std::move(small.v);
    return out;
}

SvdResult
svd(const Matrix &a, size_t max_rank, double tol, size_t max_sweeps)
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    if (m >= n) {
        // Column-major copy of the tall matrix.
        std::vector<double> w(m * n);
        for (size_t i = 0; i < m; ++i)
            for (size_t j = 0; j < n; ++j)
                w[j * m + i] = a.at(i, j);
        return jacobiColumnMajor(std::move(w), m, n, max_rank, tol,
                                 max_sweeps);
    }

    // Wide matrix: decompose the transpose and swap U <-> V. The
    // row-major storage of a is the column-major storage of a^T.
    SvdResult t = jacobiColumnMajor(a.data(), n, m, max_rank, tol,
                                    max_sweeps);
    SvdResult out;
    out.u = std::move(t.v);
    out.v = std::move(t.u);
    out.singular = std::move(t.singular);
    return out;
}

} // namespace quasar::linalg
