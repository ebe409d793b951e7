// Artificial-bound tests of the LP engine. A cold solve rests every column
// on the bound its cost pulls toward; when that bound is infinite, the
// column gets a finite artificial one (revised_simplex.h). These tests pin
// down the rule that keeps such a bound from passing for a real one: the
// engine agrees with the dense reference LP on random LPs whose columns are
// boxed, free, lower-bounded only or upper-bounded only (also with
// right-hand sides far beyond the artificial bound), and direct cases check
// each outcome by hand.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "ilp/lp_backend.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "reference_lp.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random LP over boxed, free, lower-bounded-only and upper-bounded-only
/// columns with costs of both signs. Every half-bounded or free column
/// whose cost pulls toward a missing bound starts cold on an artificial
/// bound. Right-hand sides are multiplied by `rhs_scale`.
Model makeHalfBoundedLp(util::Rng& rng, int n, int rows,
                        double rhs_scale = 1.0) {
  Model m;
  std::vector<VarId> xs;
  LinExpr objective;
  for (int j = 0; j < n; ++j) {
    const double lo = -static_cast<double>(rng.intIn(0, 4));
    const double hi = lo + rng.intIn(3, 12);
    switch (rng.intIn(0, 3)) {
      case 0: xs.push_back(m.addContinuous(lo, hi)); break;
      case 1: xs.push_back(m.addContinuous(-kInf, kInf)); break;
      case 2: xs.push_back(m.addContinuous(lo, kInf)); break;
      default: xs.push_back(m.addContinuous(-kInf, hi)); break;
    }
    objective += static_cast<double>(rng.intIn(-5, 5)) * LinExpr(xs.back());
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    int terms = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.chance(0.5)) continue;
      e += static_cast<double>(rng.intIn(-3, 5)) *
           LinExpr(xs[static_cast<std::size_t>(j)]);
      ++terms;
    }
    if (terms == 0) e += LinExpr(xs[rng.index(xs.size())]);
    const double rhs = rhs_scale * static_cast<double>(rng.intIn(-5, 6 * n));
    switch (rng.intIn(0, 2)) {
      case 0: m.addLessEqual(e, rhs); break;
      case 1: m.addGreaterEqual(e, -rhs); break;
      default:
        m.addEqual(e, rhs_scale * static_cast<double>(rng.intIn(0, n)));
        break;
    }
  }
  m.setObjective(objective);
  return m;
}

/// True when some column's cost pulls it toward a bound it does not have.
bool needsArtificialBound(const Model& m) {
  std::vector<double> cost(static_cast<std::size_t>(m.numVars()), 0.0);
  for (const auto& [var, coeff] : m.objective().terms())
    cost[static_cast<std::size_t>(var)] += coeff;
  for (VarId v = 0; v < m.numVars(); ++v) {
    const double c = cost[static_cast<std::size_t>(v)];
    if ((c > 0.0 && !std::isfinite(m.var(v).lower)) ||
        (c < 0.0 && !std::isfinite(m.var(v).upper)))
      return true;
  }
  return false;
}

struct Tally {
  int optimal = 0, infeasible = 0, unbounded = 0;
  int artificial_optimal = 0;  ///< optimal, starting on an artificial bound
  int beyond_artificial = 0;   ///< optimal, some |x_j| past kArtificialBound
};

/// Solves `count` random half-bounded LPs with the engine and the dense
/// reference and checks that status and objective agree.
Tally compareWithReference(std::uint64_t seed, int count, double rhs_scale) {
  util::Rng rng(seed);
  Tally t;
  for (int inst = 0; inst < count; ++inst) {
    const Model m =
        makeHalfBoundedLp(rng, 3 + inst % 10, 2 + inst % 8, rhs_scale);
    const reference::LpOutcome ref = reference::referenceLp(m);
    const LpResult got = solveLp(m, SolveParams{});
    EXPECT_EQ(ref.status, got.status) << "instance " << inst;
    if (ref.status != got.status) continue;
    switch (ref.status) {
      case LpStatus::Optimal:
        ++t.optimal;
        if (needsArtificialBound(m)) ++t.artificial_optimal;
        for (const double v : got.values)
          if (std::abs(v) > 1e7) {
            ++t.beyond_artificial;
            break;
          }
        EXPECT_NEAR(ref.objective, got.objective,
                    1e-6 * (1.0 + std::abs(ref.objective)))
            << "instance " << inst;
        break;
      case LpStatus::Infeasible: ++t.infeasible; break;
      case LpStatus::Unbounded: ++t.unbounded; break;
      default: break;
    }
  }
  ::testing::Test::RecordProperty("optimal", t.optimal);
  ::testing::Test::RecordProperty("infeasible", t.infeasible);
  ::testing::Test::RecordProperty("unbounded", t.unbounded);
  ::testing::Test::RecordProperty("artificial_optimal", t.artificial_optimal);
  ::testing::Test::RecordProperty("beyond_artificial", t.beyond_artificial);
  return t;
}

TEST(ArtificialBound, HalfBoundedLpsAgreeWithReference) {
  const Tally t = compareWithReference(20261017, 3000, 1.0);
  // Every regime occurs, and many bounded LPs start on an artificial bound.
  EXPECT_GT(t.optimal, 600);
  EXPECT_GT(t.infeasible, 200);
  EXPECT_GT(t.unbounded, 600);
  EXPECT_GT(t.artificial_optimal, 300);
}

TEST(ArtificialBound, LargeRightHandSidesAgreeWithReference) {
  // Right-hand sides up to 7.2e7 put many optima beyond the artificial
  // bound (1e7), where the bound a column starts on binds and must move.
  const Tally t = compareWithReference(20261018, 1500, 1e6);
  EXPECT_GT(t.optimal, 250);
  EXPECT_GT(t.infeasible, 400);
  EXPECT_GT(t.unbounded, 500);
  EXPECT_GT(t.beyond_artificial, 80);
}

/// min -2x + 3z over x in [1, inf) and z in (-inf, 2]: both costs pull
/// toward the missing bound. With `capped`, the row x + y <= 6 stops x.
Model makeHalfBoundedPull(bool capped) {
  Model m;
  const VarId x = m.addContinuous(1, kInf, "x");
  const VarId y = m.addContinuous(0, 5, "y");
  const VarId z = m.addContinuous(-kInf, 2, "z");
  if (capped) m.addLessEqual(LinExpr(x) + LinExpr(y), 6);
  m.addGreaterEqual(LinExpr(x) - LinExpr(y), 0);
  m.addGreaterEqual(LinExpr(z) - LinExpr(y), -4);
  m.setObjective(-2.0 * LinExpr(x) + 3.0 * LinExpr(z));
  return m;
}

TEST(ArtificialBound, PullTowardMissingBoundStoppedByRowIsOptimal) {
  // z >= y - 4 and x <= 6 - y: the objective -24 + 5y is smallest at y = 0.
  const Model m = makeHalfBoundedPull(/*capped=*/true);
  const LpResult r = solveLp(m, SolveParams{});
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -24.0, 1e-9);
  EXPECT_NEAR(r.values[0], 6.0, 1e-9);
  EXPECT_NEAR(r.values[1], 0.0, 1e-9);
  EXPECT_NEAR(r.values[2], -4.0, 1e-9);
  EXPECT_EQ(reference::referenceLp(m).status, LpStatus::Optimal);
}

TEST(ArtificialBound, PullTowardMissingBoundUnstoppedIsUnbounded) {
  const Model m = makeHalfBoundedPull(/*capped=*/false);
  EXPECT_EQ(solveLp(m, SolveParams{}).status, LpStatus::Unbounded);
  EXPECT_EQ(reference::referenceLp(m).status, LpStatus::Unbounded);
}

TEST(ArtificialBound, FreeColumnsWithNonzeroCost) {
  // min x + 2y - w over free x and w: x >= 3 - y and x <= 1 + y force
  // y >= 1, and w <= 5 - x. The objective 2(x + y) - 5 is 1 at best.
  Model m;
  const VarId x = m.addContinuous(-kInf, kInf, "x");
  const VarId y = m.addContinuous(0, 4, "y");
  const VarId w = m.addContinuous(-kInf, kInf, "w");
  m.addGreaterEqual(LinExpr(x) + LinExpr(y), 3);
  m.addLessEqual(LinExpr(x) - LinExpr(y), 1);
  m.addLessEqual(LinExpr(w) + LinExpr(x), 5);
  m.setObjective(LinExpr(x) + 2.0 * LinExpr(y) - LinExpr(w));
  const LpResult r = solveLp(m, SolveParams{});
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
  EXPECT_NEAR(r.values[x] + r.values[y], 3.0, 1e-9);
  EXPECT_NEAR(r.values[w] + r.values[x], 5.0, 1e-9);
}

TEST(ArtificialBound, OptimumPastArtificialBound) {
  // min -x over x >= 0 with x <= 2e7: the cold start rests x on its
  // artificial upper bound 1e7, where the row is still slack.
  Model m;
  const VarId x = m.addContinuous(0, kInf, "x");
  m.addLessEqual(LinExpr(x), 2e7);
  m.setObjective(-1.0 * LinExpr(x));
  const LpResult r = solveLp(m, SolveParams{});
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -2e7, 1e-6);
}

TEST(ArtificialBound, OptimumPastArtificialBoundThroughSolve) {
  // min z - x over x, z >= 0 with x - z <= 2e7, through presolve and
  // branch-and-bound's root LP.
  Model m;
  const VarId x = m.addContinuous(0, kInf, "x");
  const VarId z = m.addContinuous(0, kInf, "z");
  m.addLessEqual(LinExpr(x) - LinExpr(z), 2e7);
  m.setObjective(LinExpr(z) - LinExpr(x));
  const Solution s = solve(m, SolveParams{});
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -2e7, 1e-6);
}

TEST(ArtificialBound, FeasibleOnlyPastArtificialBound) {
  // min 2z - x over x, z >= 0 with x >= 2e7 and x <= z: every feasible
  // point lies past x's artificial upper bound, so a row the dual simplex
  // cannot repair within that bound proves nothing. The optimum is
  // x = z = 2e7.
  Model m;
  const VarId x = m.addContinuous(0, kInf, "x");
  const VarId z = m.addContinuous(0, kInf, "z");
  m.addGreaterEqual(LinExpr(x), 2e7);
  m.addLessEqual(LinExpr(x) - LinExpr(z), 0);
  m.setObjective(2.0 * LinExpr(z) - LinExpr(x));
  const LpResult r = solveLp(m, SolveParams{});
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 2e7, 1e-6);
}

TEST(ArtificialBound, InfeasibleVerdictAfterWideningIsRechecked) {
  // x1 = 1.5 x3 + 1.5 x2 - 1.5e7 sits past x1's artificial lower bound,
  // and x0, in no row, falls without limit: Unbounded. On the way, the
  // widened bounds leave rounding drift on the slack of x3 = 0 that reads
  // as a violation the row cannot repair, until a refactorization.
  Model m;
  const VarId x0 = m.addContinuous(-3, kInf, "x0");
  const VarId x1 = m.addContinuous(-kInf, kInf, "x1");
  const VarId x2 = m.addContinuous(-1, 9, "x2");
  const VarId x3 = m.addContinuous(0, 6, "x3");
  m.addGreaterEqual(-2.0 * LinExpr(x2), -1.1e8);
  m.addEqual(-2.0 * LinExpr(x1) + 3.0 * LinExpr(x2) + 3.0 * LinExpr(x3),
             3e7);
  m.addEqual(LinExpr(x3), 0);
  m.setObjective(-5.0 * LinExpr(x0) + 4.0 * LinExpr(x1) + LinExpr(x2) -
                 3.0 * LinExpr(x3));
  EXPECT_EQ(solveLp(m, SolveParams{}).status, LpStatus::Unbounded);
  EXPECT_EQ(reference::referenceLp(m).status, LpStatus::Unbounded);
}

TEST(ArtificialBound, OptimumRestingOnArtificialBoundWarmStarts) {
  // min z - x over z, x >= 0 with x - z <= 4. The cold start rests x on
  // its artificial upper bound; the one dual pivot ties between z and x
  // and takes z, the lower index, so the optimum z = 1e7 - 4 leaves x on
  // that bound with reduced cost 0: Optimal, not Unbounded. A warm solve
  // that gives x a real upper bound starts from that basis.
  Model m;
  const VarId z = m.addContinuous(0, kInf, "z");
  const VarId x = m.addContinuous(0, kInf, "x");
  m.addLessEqual(LinExpr(x) - LinExpr(z), 4);
  m.setObjective(LinExpr(z) - LinExpr(x));
  const SolveParams params;  // the engine keeps a reference
  const std::unique_ptr<LpBackend> engine = makeLpBackend(m, params);

  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {kInf, kInf};
  const LpResult cold = engine->solve(lower, upper, /*allow_warm=*/false);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_NEAR(cold.objective, -4.0, 1e-9);
  EXPECT_NEAR(cold.values[static_cast<std::size_t>(x)], 1e7, 1e-9);

  upper[static_cast<std::size_t>(x)] = 100.0;
  bool used_warm = false;
  const LpResult warm =
      engine->solve(lower, upper, /*allow_warm=*/true, &used_warm);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(used_warm);
  EXPECT_NEAR(warm.objective, -4.0, 1e-9);
}

}  // namespace
}  // namespace pdw::ilp
