/**
 * @file
 * Golden-bit tests for the collaborative-filtering kernels: the exact
 * bit patterns of every double that svd(), randomizedSvd(),
 * PqModel::fit() and PqModel::foldInRow() return on fixed seeded
 * inputs, folded into one FNV-1a hash per case.
 *
 * The kernels are tuned for speed under a bit-identity contract
 * (DESIGN.md §9, "CF kernels"): a faster kernel must return the same
 * bits, or every placement and decision hash downstream moves. A
 * tolerance test cannot see a last-bit change; these can. The build
 * uses no -march, FMA or fast-math flag and the kernels keep every
 * reduction's order, so the hashes do not depend on the host.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "stats/rng.hh"

#include "linalg/matrix.hh"
#include "linalg/pq_model.hh"
#include "linalg/svd.hh"

using namespace quasar::linalg;
using quasar::stats::Rng;

namespace
{

/** FNV-1a fold over the bit patterns of doubles (and counts). */
struct BitHash
{
    uint64_t h = 0xCBF29CE484222325ULL;

    void fold(uint64_t v)
    {
        h ^= v;
        h *= 0x100000001B3ULL;
    }
    void fold(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        fold(bits);
    }
    void fold(const std::vector<double> &v)
    {
        fold(uint64_t(v.size()));
        for (double x : v)
            fold(x);
    }
    void fold(const Matrix &m)
    {
        fold(uint64_t(m.rows()) << 32 | uint64_t(m.cols()));
        for (double x : m.data())
            fold(x);
    }
};

uint64_t
hashSvd(const SvdResult &s)
{
    BitHash b;
    b.fold(s.u);
    b.fold(s.singular);
    b.fold(s.v);
    return b.h;
}

Matrix
gaussian(size_t m, size_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix a(m, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            a.at(i, j) = rng.normal(0.0, 1.0);
    return a;
}

/** Exactly rank-k product of two Gaussian factors. */
Matrix
rankDeficient(size_t m, size_t n, size_t k, uint64_t seed)
{
    return gaussian(m, k, seed).multiply(gaussian(k, n, seed + 1));
}

/**
 * A classification-shaped masked matrix: the first dense_rows rows
 * fully observed (offline seeds), the rest sampled with probability
 * density (online history), values around 1 with noise.
 */
MaskedMatrix
history(size_t rows, size_t cols, size_t dense_rows, double density,
        uint64_t seed)
{
    Rng rng(seed);
    MaskedMatrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (r < dense_rows || rng.chance(density))
                m.set(r, c, rng.normal(1.0, 0.5));
    return m;
}

uint64_t
hashFit(const PqModel &model)
{
    BitHash b;
    b.fold(model.reconstruct());
    b.fold(model.trainRmse());
    b.fold(uint64_t(model.epochsRun()));
    return b.h;
}

uint64_t
hashFoldIn(const PqModel &model,
           const std::vector<std::pair<size_t, double>> &observed)
{
    BitHash b;
    b.fold(model.foldInRow(observed));
    return b.h;
}

} // namespace

TEST(LinalgGolden, SvdTall)
{
    EXPECT_EQ(hashSvd(svd(gaussian(40, 12, 11))), 0x80834DB34F03C5FCULL);
}

TEST(LinalgGolden, SvdWideTruncated)
{
    EXPECT_EQ(hashSvd(svd(gaussian(10, 30, 12), 6)), 0xD3192A16969925B5ULL);
}

TEST(LinalgGolden, SvdRankDeficient)
{
    EXPECT_EQ(hashSvd(svd(rankDeficient(30, 10, 3, 13))),
              0xD5050302D14C0DE6ULL);
}

TEST(LinalgGolden, SvdExactlyOrthogonalPairs)
{
    // Columns 0-3 are Hadamard columns (exactly orthogonal, so their
    // pairs are skipped in the first sweep) and column 4 is not
    // orthogonal to any of them: rotating it into each of them
    // un-settles every skipped pair, which must then be checked again.
    Matrix a = gaussian(8, 5, 19);
    for (size_t i = 0; i < 8; ++i)
        for (size_t j = 0; j < 4; ++j)
            a.at(i, j) = (std::popcount(i & j) % 2) ? -1.0 : 1.0;
    EXPECT_EQ(hashSvd(svd(a)), 0xC32954731D0E68C2ULL);
}

TEST(LinalgGolden, SvdClassifierShape)
{
    // The BM_SvdJacobi/32 input: 60 workloads x 32 configurations.
    EXPECT_EQ(hashSvd(svd(gaussian(60, 32, 3), 8)), 0x1BD95568EFA5C5E0ULL);
}

TEST(LinalgGolden, RandomizedSvd)
{
    EXPECT_EQ(hashSvd(randomizedSvd(gaussian(120, 90, 14), 8)),
              0xEE9889758F41DCC0ULL);
}

TEST(LinalgGolden, PqFitSparseHistory)
{
    PqModel model;
    model.fit(history(120, 56, 30, 0.06, 6));
    EXPECT_EQ(hashFit(model), 0x971CC4E1A562EF6CULL);
}

TEST(LinalgGolden, PqFitDense)
{
    PqModel model;
    model.fit(history(50, 56, 50, 0.0, 5));
    EXPECT_EQ(hashFit(model), 0x06F440B7B5FFE6C1ULL);
}

TEST(LinalgGolden, PqFitFewRowsRankBelowEight)
{
    // 5 rows: the fit's rank drops to 5 (the runtime-rank epoch).
    PqModel model;
    model.fit(history(5, 20, 2, 0.4, 15));
    EXPECT_EQ(hashFit(model), 0x19FC3636D7ACFE22ULL);
}

TEST(LinalgGolden, PqFitWideTakesRandomizedPath)
{
    // More than 64 columns: the SVD seed is randomizedSvd.
    PqModel model;
    model.fit(history(40, 80, 6, 0.1, 16));
    EXPECT_EQ(hashFit(model), 0x99B76F2B1B1F338BULL);
}

TEST(LinalgGolden, PqFitDivergenceRestart)
{
    // Values near 1e200 give SVD-seeded factors near 1e100; the first
    // epoch's updates overflow the dot product, and the fit restarts
    // once from small random factors with a gentler step.
    MaskedMatrix m = history(12, 10, 12, 0.0, 17);
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            m.set(r, c, m.value(r, c) * 1e200);
    PqModel model(PqConfig{.rank = 4, .max_epochs = 40, .seed = 9});
    model.fit(m);
    EXPECT_EQ(hashFit(model), 0x34BD25045AB8D4D7ULL);
}

TEST(LinalgGolden, FoldInRows)
{
    PqModel model;
    model.fit(history(120, 56, 30, 0.06, 6));
    // The BM_FoldInRow row: two profiling samples.
    EXPECT_EQ(hashFoldIn(model, {{3, 1.2}, {40, 0.8}}), 0xEA0A840FD90F0E3CULL);
    // One entry.
    EXPECT_EQ(hashFoldIn(model, {{17, 0.6}}), 0xFDD276B833F14EC3ULL);
    // A dense row: every column observed.
    std::vector<std::pair<size_t, double>> dense;
    Rng rng(18);
    for (size_t c = 0; c < 56; ++c)
        dense.emplace_back(c, rng.normal(1.0, 0.5));
    EXPECT_EQ(hashFoldIn(model, dense), 0xEC0BB93AE13E77C9ULL);
}

TEST(LinalgGolden, FoldInDegenerateSystems)
{
    // Nothing observed: the normal matrix is all zeros, so every
    // pivot falls below the 1e-12 skip threshold.
    PqModel model;
    model.fit(history(120, 56, 30, 0.06, 6));
    EXPECT_EQ(hashFoldIn(model, {}), 0x324B6525B6BE52C5ULL);

    // An empty fit keeps all-zero item factors: the normal matrix is
    // diagonal, so every elimination multiplier is exactly zero.
    PqModel flat;
    flat.fit(MaskedMatrix(4, 6));
    EXPECT_EQ(hashFoldIn(flat, {{1, 0.5}, {4, 2.0}}), 0xD14058485A016871ULL);

    // Rank below eight (5-row fit).
    PqModel small;
    small.fit(history(5, 20, 2, 0.4, 15));
    EXPECT_EQ(hashFoldIn(small, {{0, 1.1}, {7, 0.9}, {19, 1.3}}),
              0xB9065DA26C3A7A9BULL);
}
