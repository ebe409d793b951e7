// The test-only reference LP (reference_lp.h) against brute-force vertex
// enumeration. A nonempty boxed polytope attains its optimum at a vertex,
// where n linearly independent hyperplanes (rows held at equality, or
// variable bounds) meet, so solving every n-subset of hyperplanes gives an
// answer that shares nothing with either simplex implementation.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "ilp/model.h"
#include "reference_lp.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

/// Solve the n x n system `a x = b` by Gaussian elimination with partial
/// pivoting; nullopt when it is (near-)singular.
std::optional<std::vector<double>> solveSquare(
    std::vector<std::vector<double>> a, std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a[i][k]) > std::abs(a[p][k])) p = i;
    if (std::abs(a[p][k]) < 1e-9) return std::nullopt;
    std::swap(a[k], a[p]);
    std::swap(b[k], b[p]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i][k] / a[k][k];
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t k = n; k-- > 0;) {
    double v = b[k];
    for (std::size_t j = k + 1; j < n; ++j) v -= a[k][j] * x[j];
    x[k] = v / a[k][k];
  }
  return x;
}

/// Minimum objective over the feasible vertices of a boxed LP; nullopt when
/// no vertex — hence no point — is feasible.
std::optional<double> vertexOptimum(const Model& m) {
  const std::size_t n = static_cast<std::size_t>(m.numVars());
  std::vector<std::vector<double>> planes;
  std::vector<double> rhs;
  for (const Constraint& c : m.constraints()) {
    std::vector<double> row(n, 0.0);
    for (const auto& [v, a] : c.expr.terms())
      row[static_cast<std::size_t>(v)] += a;
    planes.push_back(std::move(row));
    rhs.push_back(c.rhs);
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> unit(n, 0.0);
    unit[j] = 1.0;
    planes.push_back(unit);
    rhs.push_back(m.var(static_cast<VarId>(j)).lower);
    planes.push_back(unit);
    rhs.push_back(m.var(static_cast<VarId>(j)).upper);
  }
  std::optional<double> best;
  const std::size_t k = planes.size();
  for (unsigned mask = 0; mask < (1u << k); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) != n) continue;
    std::vector<std::vector<double>> a;
    std::vector<double> b;
    for (std::size_t p = 0; p < k; ++p)
      if (mask & (1u << p)) {
        a.push_back(planes[p]);
        b.push_back(rhs[p]);
      }
    const std::optional<std::vector<double>> x = solveSquare(a, b);
    if (!x || !m.isFeasible(*x, 1e-7)) continue;
    const double value = m.objective().evaluate(*x);
    if (!best || value < *best) best = value;
  }
  return best;
}

/// Tiny boxed LP: 2-4 variables, 1-4 rows of every sense.
Model makeTinyBoxedLp(util::Rng& rng) {
  Model m;
  const int n = rng.intIn(2, 4);
  LinExpr objective;
  for (int j = 0; j < n; ++j) {
    const double lo = -static_cast<double>(rng.intIn(0, 3));
    const VarId x = m.addContinuous(lo, lo + rng.intIn(1, 6));
    objective += static_cast<double>(rng.intIn(-4, 4)) * LinExpr(x);
  }
  const int rows = rng.intIn(1, 4);
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (VarId j = 0; j < n; ++j)
      e += static_cast<double>(rng.intIn(-3, 3)) * LinExpr(j);
    const double rhs = static_cast<double>(rng.intIn(-6, 8));
    switch (rng.intIn(0, 2)) {
      case 0: m.addLessEqual(e, rhs); break;
      case 1: m.addGreaterEqual(e, rhs); break;
      default: m.addEqual(e, rhs); break;
    }
  }
  m.setObjective(objective);
  return m;
}

TEST(ReferenceLp, AgreesWithVertexEnumeration) {
  util::Rng rng(20261016);
  int optimal = 0, infeasible = 0;
  for (int inst = 0; inst < 400; ++inst) {
    const Model m = makeTinyBoxedLp(rng);
    const std::optional<double> vertex = vertexOptimum(m);
    const reference::LpOutcome ref = reference::referenceLp(m);
    if (!vertex) {
      ++infeasible;
      EXPECT_EQ(ref.status, LpStatus::Infeasible) << "instance " << inst;
      continue;
    }
    ++optimal;
    ASSERT_EQ(ref.status, LpStatus::Optimal) << "instance " << inst;
    EXPECT_NEAR(ref.objective, *vertex, 1e-6) << "instance " << inst;
  }
  EXPECT_GT(optimal, 100);
  EXPECT_GT(infeasible, 20);
}

TEST(ReferenceLp, FreeVariablesUnboundednessAndEmptyBoxes) {
  // min x - y over x - y >= -2, x free, y in [0, 3]: x = y - 2, value -2.
  Model bounded;
  const VarId x = bounded.addContinuous(-kInfinity, kInfinity);
  const VarId y = bounded.addContinuous(0.0, 3.0);
  bounded.addGreaterEqual(LinExpr(x) - LinExpr(y), -2.0);
  bounded.setObjective(LinExpr(x) - LinExpr(y) + 5.0);
  const reference::LpOutcome a = reference::referenceLp(bounded);
  ASSERT_EQ(a.status, LpStatus::Optimal);
  EXPECT_NEAR(a.objective, 3.0, 1e-9);  // the objective constant counts

  // A variable bounded only from above, minimized, runs to -inf.
  Model unbounded;
  const VarId u = unbounded.addContinuous(-kInfinity, 4.0);
  unbounded.addLessEqual(LinExpr(u), 10.0);
  unbounded.setObjective(LinExpr(u));
  EXPECT_EQ(reference::referenceLp(unbounded).status, LpStatus::Unbounded);

  // An empty box is infeasible before any row is read.
  EXPECT_EQ(reference::referenceLp(bounded, {0.0, 2.0}, {1.0, 1.0}).status,
            LpStatus::Infeasible);
}

}  // namespace
}  // namespace pdw::ilp
