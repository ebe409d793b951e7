// BasisLu unit tests: factor/solve residuals on sparse and dense bases,
// singular-basis rejection, product-form update correctness against a fresh
// factorization, and drift across long eta chains (the refactorization
// policy's safety margin).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "ilp/basis_lu.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

using Columns = std::vector<BasisLu::SparseColumn>;

/// Random strictly column-diagonally-dominant basis (hence nonsingular):
/// position p owns row perm[p] with a dominant entry, plus off-diagonal
/// noise whose total magnitude stays below the dominant entry.
Columns randomBasis(util::Rng& rng, int m, double density) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  rng.shuffle(perm);

  Columns cols(static_cast<std::size_t>(m));
  const double off_mag = 1.5 / static_cast<double>(m);
  for (int p = 0; p < m; ++p) {
    BasisLu::SparseColumn& col = cols[static_cast<std::size_t>(p)];
    const int diag_row = perm[static_cast<std::size_t>(p)];
    for (int r = 0; r < m; ++r) {
      if (r == diag_row) {
        col.emplace_back(r, 2.0 + 4.0 * rng.uniform());
      } else if (rng.chance(density)) {
        col.emplace_back(r, off_mag * (2.0 * rng.uniform() - 1.0));
      }
    }
  }
  return cols;
}

std::vector<double> randomVector(util::Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (double& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

/// max_r | (B x)_r - rhs_r | with x position-indexed (ftran output).
double ftranResidual(const Columns& cols, const std::vector<double>& x,
                     const std::vector<double>& rhs) {
  std::vector<double> bx(rhs.size(), 0.0);
  for (std::size_t p = 0; p < cols.size(); ++p)
    for (const auto& [row, value] : cols[p])
      bx[static_cast<std::size_t>(row)] += value * x[p];
  double worst = 0.0;
  for (std::size_t r = 0; r < rhs.size(); ++r)
    worst = std::max(worst, std::abs(bx[r] - rhs[r]));
  return worst;
}

/// max_p | (Bᵀ y)_p - c_p | with y row-indexed (btran output).
double btranResidual(const Columns& cols, const std::vector<double>& y,
                     const std::vector<double>& c) {
  double worst = 0.0;
  for (std::size_t p = 0; p < cols.size(); ++p) {
    double dot = 0.0;
    for (const auto& [row, value] : cols[p])
      dot += value * y[static_cast<std::size_t>(row)];
    worst = std::max(worst, std::abs(dot - c[p]));
  }
  return worst;
}

void expectSolves(BasisLu& lu, const Columns& cols, util::Rng& rng,
                  double tol) {
  const int m = static_cast<int>(cols.size());
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> rhs = randomVector(rng, m);
    std::vector<double> x = rhs;
    lu.ftran(x);
    EXPECT_LT(ftranResidual(cols, x, rhs), tol);

    const std::vector<double> c = randomVector(rng, m);
    std::vector<double> y = c;
    lu.btran(y);
    EXPECT_LT(btranResidual(cols, y, c), tol);
  }
}

TEST(BasisLu, PermutedIdentitySolvesExactly) {
  util::Rng rng(1);
  const int m = 7;
  std::vector<int> perm{3, 0, 6, 1, 5, 2, 4};
  Columns cols(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p)
    cols[static_cast<std::size_t>(p)].emplace_back(
        perm[static_cast<std::size_t>(p)], 1.0);

  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));
  EXPECT_TRUE(lu.valid());
  EXPECT_EQ(lu.size(), m);
  expectSolves(lu, cols, rng, 1e-12);
}

TEST(BasisLu, SparseModeRandomBasesSolve) {
  util::Rng rng(42);
  for (int m : {6, 24, 48}) {
    const Columns cols = randomBasis(rng, m, 0.10);
    BasisLu lu;
    ASSERT_TRUE(lu.factor(m, cols)) << "m=" << m;
    expectSolves(lu, cols, rng, 1e-8);
  }
}

TEST(BasisLu, DenseModeRandomBasesSolve) {
  // A 70%-dense basis: the sparse elimination must solve it too.
  util::Rng rng(43);
  const int m = 48;
  const Columns cols = randomBasis(rng, m, 0.7);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));
  expectSolves(lu, cols, rng, 1e-8);
}

TEST(BasisLu, SingularBasisRejected) {
  util::Rng rng(7);
  for (int m : {5, 40}) {
    Columns cols = randomBasis(rng, m, 0.2);
    // Duplicate one column over another: rank deficiency.
    cols[1] = cols[0];
    BasisLu lu;
    EXPECT_FALSE(lu.factor(m, cols)) << "duplicate column, m=" << m;
    EXPECT_FALSE(lu.valid());

    cols = randomBasis(rng, m, 0.2);
    cols[2].clear();  // structurally empty column
    EXPECT_FALSE(lu.factor(m, cols)) << "empty column, m=" << m;
    EXPECT_FALSE(lu.valid());
  }
}

TEST(BasisLu, SingularThenRecoverByRefactor) {
  // The engine's recovery path: a failed factor() must leave the object in
  // a state from which a factor() of a good basis succeeds cleanly.
  util::Rng rng(8);
  const int m = 12;
  Columns good = randomBasis(rng, m, 0.25);
  Columns bad = good;
  bad[4] = bad[9];

  BasisLu lu;
  EXPECT_FALSE(lu.factor(m, bad));
  ASSERT_TRUE(lu.factor(m, good));
  expectSolves(lu, good, rng, 1e-8);
}

TEST(BasisLu, ProductFormUpdateMatchesFreshFactor) {
  util::Rng rng(1234);
  const int m = 20;
  Columns cols = randomBasis(rng, m, 0.3);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));

  int applied = 0;
  for (int step = 0; step < 12; ++step) {
    // Entering column: another dominant random column.
    const int pos = rng.intIn(0, m - 1);
    const Columns fresh_col = randomBasis(rng, m, 0.3);
    const BasisLu::SparseColumn& entering = fresh_col[static_cast<std::size_t>(pos)];

    std::vector<double> alpha(static_cast<std::size_t>(m), 0.0);
    for (const auto& [row, value] : entering)
      alpha[static_cast<std::size_t>(row)] = value;
    lu.ftran(alpha);  // alpha := B⁻¹ a, position-indexed
    if (std::abs(alpha[static_cast<std::size_t>(pos)]) < 1e-6) continue;

    ASSERT_TRUE(lu.update(pos, alpha));
    cols[static_cast<std::size_t>(pos)] = entering;
    ++applied;

    // The eta-updated solves must match a from-scratch factorization of
    // the modified basis.
    BasisLu oracle;
    ASSERT_TRUE(oracle.factor(m, cols));
    const std::vector<double> rhs = randomVector(rng, m);
    std::vector<double> x_eta = rhs, x_oracle = rhs;
    lu.ftran(x_eta);
    oracle.ftran(x_oracle);
    for (int p = 0; p < m; ++p)
      EXPECT_NEAR(x_eta[static_cast<std::size_t>(p)],
                  x_oracle[static_cast<std::size_t>(p)], 1e-7)
          << "step " << step << " pos " << p;

    const std::vector<double> c = randomVector(rng, m);
    std::vector<double> y_eta = c, y_oracle = c;
    lu.btran(y_eta);
    oracle.btran(y_oracle);
    for (int r = 0; r < m; ++r)
      EXPECT_NEAR(y_eta[static_cast<std::size_t>(r)],
                  y_oracle[static_cast<std::size_t>(r)], 1e-7)
          << "step " << step << " row " << r;
  }
  EXPECT_GE(applied, 6);
  EXPECT_EQ(lu.updates(), applied);
}

TEST(BasisLu, UpdateRefusesTinyPivot) {
  util::Rng rng(5);
  const int m = 8;
  const Columns cols = randomBasis(rng, m, 0.3);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));
  std::vector<double> alpha(static_cast<std::size_t>(m), 1.0);
  alpha[3] = 1e-12;  // below kUpdatePivotTol
  EXPECT_FALSE(lu.update(3, alpha));
  EXPECT_EQ(lu.updates(), 0);  // factorization untouched
  expectSolves(lu, cols, rng, 1e-8);
}

TEST(BasisLu, DriftStaysBoundedAcrossLongEtaChain) {
  // 40 consecutive product-form updates — well past the engine's sparse
  // refactorization interval — must keep solve residuals within the drift
  // tolerance the post-warm-solve scan assumes (1e-6).
  util::Rng rng(99);
  const int m = 30;
  Columns cols = randomBasis(rng, m, 0.2);
  BasisLu lu;
  ASSERT_TRUE(lu.factor(m, cols));

  int applied = 0;
  while (applied < 40) {
    const int pos = rng.intIn(0, m - 1);
    const BasisLu::SparseColumn entering =
        randomBasis(rng, m, 0.2)[static_cast<std::size_t>(pos)];
    std::vector<double> alpha(static_cast<std::size_t>(m), 0.0);
    for (const auto& [row, value] : entering)
      alpha[static_cast<std::size_t>(row)] = value;
    lu.ftran(alpha);
    if (std::abs(alpha[static_cast<std::size_t>(pos)]) < 1e-6) continue;
    ASSERT_TRUE(lu.update(pos, alpha));
    cols[static_cast<std::size_t>(pos)] = entering;
    ++applied;
  }
  EXPECT_EQ(lu.updates(), 40);

  const std::vector<double> rhs = randomVector(rng, m);
  std::vector<double> x = rhs;
  lu.ftran(x);
  EXPECT_LT(ftranResidual(cols, x, rhs), 1e-6);

  // Refactorizing re-anchors: residual returns to fresh-factor accuracy.
  ASSERT_TRUE(lu.factor(m, cols));
  EXPECT_EQ(lu.updates(), 0);
  std::vector<double> x2 = rhs;
  lu.ftran(x2);
  EXPECT_LT(ftranResidual(cols, x2, rhs), 1e-9);
}

}  // namespace
}  // namespace pdw::ilp
