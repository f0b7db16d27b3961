#include "linalg/pq_model.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

#include "stats/rng.hh"

#include "linalg/svd.hh"

namespace quasar::linalg
{

namespace
{

/** Initial SGD step eta (decays on plateaus). */
constexpr double kLearningRate = 0.05;
/** SGD regularization lambda. */
constexpr double kRegularization = 0.03;
/** Stop when the epoch RMSE delta is below this. */
constexpr double kTolerance = 1e-6;
/** Ridge strength (per observation) used when folding in rows. */
constexpr double kFoldInRegularization = 0.01;

/** One observed training entry (16 bytes). */
struct Entry
{
    uint32_t r, c;
    double v;
};

/**
 * One SGD epoch over the (already shuffled) entries. q and p are the
 * row-major user and item factors, k doubles per row. K > 0 fixes the
 * rank at compile time; K == 0 reads it from k. The dot product sums
 * in f order and every update is the element-wise expression of the
 * paper's step, so each instantiation returns the same bits.
 *
 * @return false when a dot product went non-finite (the epoch stops
 *         there and the caller restarts the fit).
 */
template <size_t K>
bool
sgdEpoch(const Entry *entries, size_t n, double *__restrict q,
         double *__restrict p, double *__restrict row_bias,
         double *__restrict col_bias, size_t k, double mu, double eta,
         double lambda, double &sq)
{
    if constexpr (K > 0)
        k = K;
    for (size_t i = 0; i < n; ++i) {
        const Entry &e = entries[i];
        double *__restrict qr = q + size_t(e.r) * k;
        double *__restrict pc = p + size_t(e.c) * k;
        double dot = 0.0;
        for (size_t f = 0; f < k; ++f)
            dot += qr[f] * pc[f];
        if (!std::isfinite(dot))
            return false;
        double eps = e.v - mu - row_bias[e.r] - col_bias[e.c] - dot;
        // Clip pathological residuals so a bad step cannot blow the
        // factors up (SGD with a too-large eta diverges).
        eps = std::clamp(eps, -1e3, 1e3);
        sq += eps * eps;
        row_bias[e.r] += eta * (eps - lambda * row_bias[e.r]);
        col_bias[e.c] += eta * (eps - lambda * col_bias[e.c]);
        for (size_t f = 0; f < k; ++f) {
            double qv = qr[f];
            double pv = pc[f];
            qr[f] = qv + eta * (eps * pv - lambda * qv);
            pc[f] = pv + eta * (eps * qv - lambda * pv);
        }
    }
    return true;
}

} // namespace

PqModel::PqModel(PqConfig cfg) : cfg_(cfg)
{
    if (cfg_.rank > kMaxRank) {
        std::fprintf(stderr, "PqModel: rank %zu exceeds kMaxRank %zu\n",
                     cfg_.rank, kMaxRank);
        std::abort();
    }
}

void
PqModel::fit(const MaskedMatrix &a)
{
    rows_ = a.rows();
    cols_ = a.cols();
    const size_t k = std::max<size_t>(
        1, std::min({cfg_.rank, rows_, cols_}));

    mu_ = a.observedMean();
    row_bias_.assign(rows_, 0.0);
    col_bias_.assign(cols_, 0.0);

    // A history can legally be empty at the first classify call (no
    // offline seeding, no online rows yet). Keep the flat mu+bias
    // model rather than asking the SVD for a rank-0 sketch of an
    // empty matrix; fold-in then predicts mu_ + col_bias_, exactly
    // what the full path degenerates to with nothing observed.
    if (rows_ == 0 || cols_ == 0 || a.numObserved() == 0) {
        q_ = Matrix(rows_, k);
        p_ = Matrix(cols_, k);
        return;
    }

    // Initialize biases from shrunk column and row means so the
    // population's average response shape lives in the biases and the
    // latent factors only carry per-row deviation. Without this, a
    // high-rank fit on few dense rows absorbs the column structure
    // into the factors, and folded-in rows (whose factors are shrunk
    // by ridge) degenerate toward a flat prediction.
    {
        std::vector<double> col_sum(cols_, 0.0);
        std::vector<size_t> col_n(cols_, 0);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t c = 0; c < cols_; ++c)
                if (a.observed(r, c)) {
                    col_sum[c] += a.value(r, c) - mu_;
                    ++col_n[c];
                }
        for (size_t c = 0; c < cols_; ++c)
            col_bias_[c] = col_sum[c] / (double(col_n[c]) + 3.0);
        std::vector<double> row_sum(rows_, 0.0);
        std::vector<size_t> row_n(rows_, 0);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t c = 0; c < cols_; ++c)
                if (a.observed(r, c)) {
                    row_sum[r] += a.value(r, c) - mu_ - col_bias_[c];
                    ++row_n[r];
                }
        for (size_t r = 0; r < rows_; ++r)
            row_bias_[r] = row_sum[r] / (double(row_n[r]) + 3.0);
    }

    // Seed factors from the SVD of the fully-debiased residual with
    // unobserved entries at zero (paper: P^T = Sigma V^T, Q = U).
    Matrix centered(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            if (a.observed(r, c))
                centered.at(r, c) = a.value(r, c) - mu_ -
                                    row_bias_[r] - col_bias_[c];
    // Jacobi is exact but O(m n^2); fall back to randomized truncated
    // SVD for the wide matrices of the exhaustive classification.
    SvdResult s = (cols_ > 64 || rows_ * cols_ > 20000)
                      ? randomizedSvd(centered, k, 2, cfg_.seed)
                      : svd(centered, k);

    // Split the singular values symmetrically (Q = U sqrt(S),
    // P = V sqrt(S)); the paper's asymmetric split (P^T = S V^T)
    // reconstructs identically but leaves P entries of magnitude
    // sigma_1, which makes the first SGD steps unstable.
    q_ = Matrix(rows_, k);
    p_ = Matrix(cols_, k);
    for (size_t f = 0; f < s.rank(); ++f) {
        double root = std::sqrt(std::max(s.singular[f], 0.0));
        for (size_t r = 0; r < rows_; ++r)
            q_.at(r, f) = s.u.at(r, f) * root;
        for (size_t c = 0; c < cols_; ++c)
            p_.at(c, f) = s.v.at(c, f) * root;
    }

    // Collect observed entries once. A matrix with 2^32 rows or
    // columns and at least one observation cannot fit in memory, so
    // the indices fit in 32 bits.
    std::vector<Entry> entries;
    entries.reserve(a.numObserved());
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            if (a.observed(r, c))
                entries.push_back(
                    {uint32_t(r), uint32_t(c), a.value(r, c)});

    if (entries.empty()) {
        train_rmse_ = 0.0;
        epochs_run_ = 0;
        return;
    }

    stats::Rng rng(cfg_.seed);
    double eta = kLearningRate;
    const double lambda = kRegularization;
    double prev_rmse = std::numeric_limits<double>::infinity();
    // The classifier's rank gets a fixed-size epoch.
    auto epoch = k == 8 ? &sgdEpoch<8> : &sgdEpoch<0>;

    for (epochs_run_ = 0; epochs_run_ < cfg_.max_epochs; ++epochs_run_) {
        // The permutation depends only on the size and the RNG, not
        // on the element type.
        std::shuffle(entries.begin(), entries.end(), rng.engine());
        double sq = 0.0;
        bool diverged = !epoch(entries.data(), entries.size(), q_.raw(),
                               p_.raw(), row_bias_.data(),
                               col_bias_.data(), k, mu_, eta, lambda, sq);
        double rmse = std::sqrt(sq / double(entries.size()));
        if (diverged || !std::isfinite(rmse)) {
            // Divergence: restart from small random factors with a
            // much gentler learning rate.
            std::normal_distribution<double> g(0.0, 0.01);
            for (size_t r = 0; r < rows_; ++r)
                for (size_t f = 0; f < k; ++f)
                    q_.at(r, f) = g(rng.engine());
            for (size_t c = 0; c < cols_; ++c)
                for (size_t f = 0; f < k; ++f)
                    p_.at(c, f) = g(rng.engine());
            std::fill(row_bias_.begin(), row_bias_.end(), 0.0);
            std::fill(col_bias_.begin(), col_bias_.end(), 0.0);
            eta *= 0.3;
            prev_rmse = std::numeric_limits<double>::infinity();
            continue;
        }
        train_rmse_ = rmse;
        if (rmse > prev_rmse * 1.02)
            eta = std::max(eta * 0.7,
                           kLearningRate / 20.0); // overshooting
        if (std::fabs(prev_rmse - rmse) < kTolerance)
            break;
        prev_rmse = rmse;
    }
}

double
PqModel::predict(size_t r, size_t c) const
{
    assert(r < rows_ && c < cols_);
    double dot = 0.0;
    for (size_t f = 0; f < q_.cols(); ++f)
        dot += q_.at(r, f) * p_.at(c, f);
    return mu_ + row_bias_[r] + col_bias_[c] + dot;
}

namespace
{

/**
 * Gaussian elimination with partial pivoting on a k x k system,
 * factored once and replayed per right-hand side.
 *
 * The constructor performs exactly the matrix half of the textbook
 * in-place elimination: the same pivot choices, the same skip of a
 * column whose pivot is below 1e-12, the same multipliers. solve()
 * then applies to b exactly the operations that elimination would
 * have applied to it in the same order (row swaps, `b[r] -= f * b[i]`
 * with the same `f == 0.0` skips) and back-substitutes on U. A
 * factor-once solve therefore returns the same bits as eliminating
 * the full augmented system every time.
 */
class SmallLu
{
  public:
    /** a: row-major k x k, k <= kMaxRank. */
    SmallLu(const double (&a)[kMaxRank][kMaxRank], size_t k) : k_(k)
    {
        for (size_t i = 0; i < k; ++i)
            for (size_t c = 0; c < k; ++c)
                u_[i][c] = a[i][c];
        for (size_t i = 0; i < k; ++i) {
            size_t piv = i;
            for (size_t r = i + 1; r < k; ++r)
                if (std::fabs(u_[r][i]) > std::fabs(u_[piv][i]))
                    piv = r;
            for (size_t c = 0; c < k; ++c)
                std::swap(u_[i][c], u_[piv][c]);
            piv_[i] = piv;
            double d = u_[i][i];
            skip_[i] = std::fabs(d) < 1e-12;
            if (skip_[i])
                continue;
            for (size_t r = i + 1; r < k; ++r) {
                double f = u_[r][i] / d;
                mult_[i][r] = f;
                if (f == 0.0)
                    continue;
                for (size_t c = i; c < k; ++c)
                    u_[r][c] -= f * u_[i][c];
            }
        }
    }

    /** Solve for x given b (b is consumed). */
    void solve(double *b, double *x) const
    {
        const size_t k = k_;
        for (size_t i = 0; i < k; ++i) {
            std::swap(b[i], b[piv_[i]]);
            if (skip_[i])
                continue;
            for (size_t r = i + 1; r < k; ++r) {
                double f = mult_[i][r];
                if (f == 0.0)
                    continue;
                b[r] -= f * b[i];
            }
        }
        for (size_t ii = k; ii-- > 0;) {
            double acc = b[ii];
            for (size_t c = ii + 1; c < k; ++c)
                acc -= u_[ii][c] * x[c];
            x[ii] = std::fabs(u_[ii][ii]) < 1e-12 ? 0.0
                                                  : acc / u_[ii][ii];
        }
    }

  private:
    size_t k_;
    size_t piv_[kMaxRank];
    bool skip_[kMaxRank];
    /** mult_[i][r]: multiplier of row r at elimination step i. */
    double mult_[kMaxRank][kMaxRank];
    /** U after elimination (entries below the diagonal unused). */
    double u_[kMaxRank][kMaxRank];
};

} // namespace

std::vector<double>
PqModel::foldInRow(
    const std::vector<std::pair<size_t, double>> &observed) const
{
    const size_t k = q_.cols();
    assert(k <= kMaxRank);
    const double *p = p_.raw();
    const double n = double(observed.size());
    const double lambda = std::max(kFoldInRegularization, 1e-4);
    const double lambda_b = 1.0;

    // The ridge normal matrix lambda n I + sum_c p_c p_c^T depends on
    // neither the bias nor the latent vector: build and factor it
    // once for all iterations.
    double ata[kMaxRank][kMaxRank];
    for (size_t f = 0; f < k; ++f)
        for (size_t g = 0; g < k; ++g)
            ata[f][g] = f == g ? lambda * n : 0.0;
    for (const auto &[c, v] : observed) {
        const double *pc = p + c * k;
        for (size_t f = 0; f < k; ++f)
            for (size_t g = 0; g < k; ++g)
                ata[f][g] += pc[f] * pc[g];
    }
    const SmallLu lu(ata, k);

    double qu[kMaxRank] = {};
    double bu = 0.0;
    for (int iter = 0; iter < 20; ++iter) {
        // Bias given factors.
        double acc = 0.0;
        for (const auto &[c, v] : observed) {
            const double *pc = p + c * k;
            double dot = 0.0;
            for (size_t f = 0; f < k; ++f)
                dot += qu[f] * pc[f];
            acc += v - mu_ - col_bias_[c] - dot;
        }
        bu = acc / (n + lambda_b);

        // Ridge solve for the latent vector given the bias.
        double atb[kMaxRank] = {};
        for (const auto &[c, v] : observed) {
            const double *pc = p + c * k;
            double y = v - mu_ - bu - col_bias_[c];
            for (size_t f = 0; f < k; ++f)
                atb[f] += pc[f] * y;
        }
        double next[kMaxRank];
        lu.solve(atb, next);
        // Each iteration is a function of qu's bits alone: once it
        // reproduces them, every later one would too.
        bool fixed = std::memcmp(next, qu, k * sizeof(double)) == 0;
        std::memcpy(qu, next, k * sizeof(double));
        if (fixed)
            break;
    }

    std::vector<double> row(cols_);
    for (size_t c = 0; c < cols_; ++c) {
        const double *pc = p + c * k;
        double dot = 0.0;
        for (size_t f = 0; f < k; ++f)
            dot += qu[f] * pc[f];
        row[c] = mu_ + bu + col_bias_[c] + dot;
    }
    // Observed entries are measurements: keep them exact.
    for (const auto &[c, v] : observed)
        row[c] = v;
    return row;
}

Matrix
PqModel::reconstruct() const
{
    Matrix out(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out.at(r, c) = predict(r, c);
    return out;
}

} // namespace quasar::linalg
