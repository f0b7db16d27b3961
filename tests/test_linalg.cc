/**
 * @file
 * Tests for the linear-algebra substrate: dense matrices, masked
 * matrices, one-sided Jacobi SVD, randomized truncated SVD,
 * PQ-reconstruction with SGD, fold-in, and matrix completion — the
 * machinery behind Quasar's collaborative-filtering classification.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "stats/rng.hh"

#include "linalg/matrix.hh"
#include "linalg/pq_model.hh"
#include "linalg/svd.hh"

using namespace quasar::linalg;

namespace
{

/** Random rank-k matrix plus optional noise. */
Matrix
lowRank(size_t m, size_t n, size_t k, uint64_t seed, double noise = 0.0)
{
    quasar::stats::Rng rng(seed);
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix a(m, k), b(k, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t f = 0; f < k; ++f)
            a.at(i, f) = g(rng.engine());
    for (size_t f = 0; f < k; ++f)
        for (size_t j = 0; j < n; ++j)
            b.at(f, j) = g(rng.engine());
    Matrix out = a.multiply(b);
    if (noise > 0.0)
        for (size_t i = 0; i < m; ++i)
            for (size_t j = 0; j < n; ++j)
                out.at(i, j) += noise * g(rng.engine());
    return out;
}

double
relErr(const Matrix &a, const Matrix &b)
{
    double denom = a.frobeniusNorm();
    Matrix d(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            d.at(i, j) = a.at(i, j) - b.at(i, j);
    return denom > 0 ? d.frobeniusNorm() / denom : 0.0;
}

} // namespace

TEST(Matrix, MultiplyIdentity)
{
    Matrix a(2, 3);
    a.at(0, 0) = 1;
    a.at(0, 2) = 2;
    a.at(1, 1) = 3;
    Matrix eye(3, 3);
    for (int i = 0; i < 3; ++i)
        eye.at(i, i) = 1.0;
    Matrix c = a.multiply(eye);
    EXPECT_DOUBLE_EQ(c.maxAbsDiff(a), 0.0);
}

TEST(Matrix, MultiplyKnown)
{
    Matrix a(2, 2), b(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 3;
    a.at(1, 1) = 4;
    b.at(0, 0) = 5;
    b.at(0, 1) = 6;
    b.at(1, 0) = 7;
    b.at(1, 1) = 8;
    Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, TransposeRoundTrip)
{
    Matrix a = lowRank(4, 7, 3, 1);
    Matrix t = a.transpose();
    EXPECT_EQ(t.rows(), 7u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_DOUBLE_EQ(t.transpose().maxAbsDiff(a), 0.0);
}

TEST(Matrix, RowColumnAccessors)
{
    Matrix a(2, 3);
    a.setRow(1, {4.0, 5.0, 6.0});
    EXPECT_EQ(a.row(1), (std::vector<double>{4.0, 5.0, 6.0}));
    EXPECT_EQ(a.column(2), (std::vector<double>{0.0, 6.0}));
}

TEST(MaskedMatrix, ObservationBookkeeping)
{
    MaskedMatrix m(3, 4);
    EXPECT_EQ(m.numObserved(), 0u);
    m.set(0, 1, 2.5);
    m.set(0, 1, 3.5); // overwrite, not double-count
    m.set(2, 3, 1.0);
    EXPECT_EQ(m.numObserved(), 2u);
    EXPECT_TRUE(m.observed(0, 1));
    EXPECT_FALSE(m.observed(1, 1));
    EXPECT_DOUBLE_EQ(m.value(0, 1), 3.5);
    EXPECT_EQ(m.observedInRow(0), 1u);
    EXPECT_NEAR(m.observedMean(), 2.25, 1e-12);
    m.clear(0, 1);
    EXPECT_EQ(m.numObserved(), 1u);
    EXPECT_DOUBLE_EQ(m.value(0, 1), 0.0);
}

TEST(MaskedMatrix, AppendRowPreservesData)
{
    MaskedMatrix m(2, 3);
    m.set(1, 2, 9.0);
    size_t r = m.appendRow();
    EXPECT_EQ(r, 2u);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_TRUE(m.observed(1, 2));
    EXPECT_DOUBLE_EQ(m.value(1, 2), 9.0);
    EXPECT_EQ(m.observedInRow(2), 0u);
}

TEST(Svd, ReconstructsExactly)
{
    Matrix a = lowRank(12, 8, 8, 2);
    SvdResult s = svd(a);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-8);
}

TEST(Svd, SingularValuesDescending)
{
    Matrix a = lowRank(10, 6, 6, 3);
    SvdResult s = svd(a);
    for (size_t i = 1; i < s.singular.size(); ++i)
        EXPECT_GE(s.singular[i - 1], s.singular[i]);
}

TEST(Svd, DetectsRank)
{
    Matrix a = lowRank(20, 10, 3, 4);
    SvdResult s = svd(a);
    EXPECT_EQ(s.effectiveRank(1e-8), 3u);
}

TEST(Svd, TruncatedKeepsDominantEnergy)
{
    Matrix a = lowRank(15, 10, 3, 5);
    SvdResult s = svd(a, 3);
    EXPECT_EQ(s.rank(), 3u);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-8);
}

TEST(Svd, WideMatrixHandled)
{
    Matrix a = lowRank(5, 20, 4, 6);
    SvdResult s = svd(a);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-8);
    EXPECT_EQ(s.u.rows(), 5u);
    EXPECT_EQ(s.v.rows(), 20u);
}

TEST(Svd, LeftVectorsOrthonormal)
{
    Matrix a = lowRank(12, 7, 7, 8);
    SvdResult s = svd(a);
    for (size_t i = 0; i < s.rank(); ++i) {
        for (size_t j = i; j < s.rank(); ++j) {
            double dot = 0.0;
            for (size_t r = 0; r < a.rows(); ++r)
                dot += s.u.at(r, i) * s.u.at(r, j);
            EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-7);
        }
    }
}

TEST(RandomizedSvd, ApproximatesLowRank)
{
    Matrix a = lowRank(60, 40, 5, 9);
    SvdResult s = randomizedSvd(a, 5, 3);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-6);
}

TEST(RandomizedSvd, NoisyMatrixCapturesStructure)
{
    Matrix a = lowRank(80, 50, 4, 10, 0.01);
    SvdResult s = randomizedSvd(a, 8, 3);
    EXPECT_LT(relErr(a, s.reconstruct()), 0.05);
}

TEST(PqModel, CompletesLowRankMatrix)
{
    // 30x20 rank-3, 40% observed: reconstruction must recover the
    // missing entries well.
    Matrix truth = lowRank(30, 20, 3, 11);
    MaskedMatrix obs(30, 20);
    quasar::stats::Rng rng(12);
    std::bernoulli_distribution keep(0.4);
    for (size_t i = 0; i < 30; ++i)
        for (size_t j = 0; j < 20; ++j)
            if (keep(rng.engine()))
                obs.set(i, j, truth.at(i, j));

    PqConfig cfg;
    cfg.rank = 6;
    cfg.max_epochs = 600;
    PqModel model(cfg);
    model.fit(obs);
    EXPECT_LT(model.trainRmse(), 0.15);

    double err = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < 30; ++i)
        for (size_t j = 0; j < 20; ++j)
            if (!obs.observed(i, j)) {
                err += std::fabs(model.predict(i, j) - truth.at(i, j));
                ++n;
            }
    EXPECT_LT(err / double(n), 0.8); // values are O(1.7) on average
}

TEST(PqModel, EmptyMatrixSafe)
{
    MaskedMatrix obs(4, 4);
    PqModel model;
    model.fit(obs);
    EXPECT_EQ(model.epochsRun(), 0u);
    EXPECT_DOUBLE_EQ(model.predict(0, 0), 0.0);
}

TEST(PqModel, RankAboveMaxIsRejected)
{
    // Fold-in solves in kMaxRank-sized stack arrays, so a larger rank
    // is refused at construction rather than overrunning them later.
    PqModel at_max(PqConfig{.rank = kMaxRank});
    EXPECT_EQ(at_max.config().rank, kMaxRank);
    EXPECT_DEATH(PqModel(PqConfig{.rank = kMaxRank + 1}),
                 "exceeds kMaxRank");
}

TEST(PqModel, FoldInRecoversRow)
{
    // Dense history of a rank-2 structure; new row observed at 3 of
    // 15 columns must be predicted well everywhere.
    const size_t rows = 25, cols = 15, k = 2;
    Matrix truth = lowRank(rows + 1, cols, k, 21);
    MaskedMatrix hist(rows, cols);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            hist.set(i, j, truth.at(i, j));

    PqConfig cfg;
    cfg.rank = 4;
    cfg.max_epochs = 500;
    PqModel model(cfg);
    model.fit(hist);

    std::vector<std::pair<size_t, double>> observed = {
        {1, truth.at(rows, 1)},
        {7, truth.at(rows, 7)},
        {12, truth.at(rows, 12)},
    };
    std::vector<double> row = model.foldInRow(observed);
    ASSERT_EQ(row.size(), cols);
    // Observed entries exact.
    EXPECT_DOUBLE_EQ(row[7], truth.at(rows, 7));
    double err = 0.0;
    for (size_t j = 0; j < cols; ++j)
        err += std::fabs(row[j] - truth.at(rows, j));
    EXPECT_LT(err / double(cols), 0.6);
}

TEST(Completion, RowCompletionAgainstDenseHistory)
{
    Matrix truth = lowRank(21, 12, 2, 41);
    MaskedMatrix hist(20, 12);
    for (size_t i = 0; i < 20; ++i)
        for (size_t j = 0; j < 12; ++j)
            hist.set(i, j, truth.at(i, j));
    PqConfig cfg;
    cfg.rank = 4;
    cfg.max_epochs = 500;
    PqModel model(cfg);
    model.fit(hist);
    std::vector<double> row =
        model.foldInRow({{0, truth.at(20, 0)}, {5, truth.at(20, 5)}});
    double err = 0.0;
    for (size_t j = 0; j < 12; ++j)
        err += std::fabs(row[j] - truth.at(20, j));
    EXPECT_LT(err / 12.0, 1.2);
}

/** Density sweep: more observed entries must not hurt accuracy much. */
class CompletionDensity : public ::testing::TestWithParam<double>
{
};

TEST_P(CompletionDensity, ErrorShrinksWithDensity)
{
    double density = GetParam();
    Matrix truth = lowRank(40, 25, 3, 51);
    MaskedMatrix obs(40, 25);
    quasar::stats::Rng rng(52);
    std::bernoulli_distribution keep(density);
    for (size_t i = 0; i < 40; ++i)
        for (size_t j = 0; j < 25; ++j)
            if (keep(rng.engine()))
                obs.set(i, j, truth.at(i, j));
    PqConfig cfg;
    cfg.rank = 6;
    cfg.max_epochs = 400;
    PqModel model(cfg);
    model.fit(obs);
    double err = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < 40; ++i)
        for (size_t j = 0; j < 25; ++j)
            if (!obs.observed(i, j)) {
                err += std::fabs(model.predict(i, j) - truth.at(i, j));
                ++n;
            }
    double mean_err = n ? err / double(n) : 0.0;
    // Higher density -> tighter bound (values are O(1.7)).
    double bound = density >= 0.6 ? 0.35 : density >= 0.4 ? 0.6 : 1.2;
    EXPECT_LT(mean_err, bound) << "density " << density;
}

INSTANTIATE_TEST_SUITE_P(Densities, CompletionDensity,
                         ::testing::Values(0.25, 0.4, 0.6, 0.8));
