// LP engine tests: textbook problems with known optima, bound handling,
// infeasibility/unboundedness detection, degenerate cases.
#include <gtest/gtest.h>

#include "ilp/simplex.h"

namespace pdw::ilp {
namespace {

SolveParams quickParams() {
  SolveParams p;
  p.time_limit_seconds = 5.0;
  return p;
}

TEST(Simplex, SolvesBasicTwoVarMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier-Lieberman)
  // => min -3x - 5y; optimum x=2, y=6, obj = -36.
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addLessEqual(LinExpr(x), 4);
  m.addLessEqual(2.0 * LinExpr(y), 12);
  m.addLessEqual(3.0 * LinExpr(x) + 2.0 * LinExpr(y), 18);
  m.setObjective(-3.0 * LinExpr(x) - 5.0 * LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -36.0, 1e-6);
  EXPECT_NEAR(r.values[x], 2.0, 1e-6);
  EXPECT_NEAR(r.values[y], 6.0, 1e-6);
}

TEST(Simplex, HandlesGreaterEqualAndEquality) {
  // min 2x + 3y s.t. x + y = 10, x >= 3, y >= 2. Optimum x=8, y=2 -> 22.
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addEqual(LinExpr(x) + LinExpr(y), 10);
  m.addGreaterEqual(LinExpr(x), 3);
  m.addGreaterEqual(LinExpr(y), 2);
  m.setObjective(2.0 * LinExpr(x) + 3.0 * LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 22.0, 1e-6);
  EXPECT_NEAR(r.values[x], 8.0, 1e-6);
  EXPECT_NEAR(r.values[y], 2.0, 1e-6);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  // min -(x + y) with x in [0, 3], y in [0, 5], x + y <= 6.
  // Optimum x=3 (its own bound), y=3 (constraint), obj=-6... wait: y can go
  // to min(5, 6-3)=3 -> total 6.
  Model m;
  VarId x = m.addContinuous(0, 3, "x");
  VarId y = m.addContinuous(0, 5, "y");
  m.addLessEqual(LinExpr(x) + LinExpr(y), 6);
  m.setObjective(-(LinExpr(x) + LinExpr(y)));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-6);
  EXPECT_LE(r.values[x], 3.0 + 1e-6);
  EXPECT_LE(r.values[y], 5.0 + 1e-6);
}

TEST(Simplex, UpperBoundOnlyBindingSolution) {
  // Pure bound-flip solution: min -x - 2y with x in [0,1], y in [0,1] and a
  // vacuous constraint. Optimum at both upper bounds.
  Model m;
  VarId x = m.addContinuous(0, 1, "x");
  VarId y = m.addContinuous(0, 1, "y");
  m.addLessEqual(LinExpr(x) + LinExpr(y), 100);
  m.setObjective(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.values[x], 1.0, 1e-6);
  EXPECT_NEAR(r.values[y], 1.0, 1e-6);
  EXPECT_NEAR(r.objective, -3.0, 1e-6);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  m.addGreaterEqual(LinExpr(x), 10);
  m.addLessEqual(LinExpr(x), 5);
  m.setObjective(LinExpr(x));

  LpResult r = solveLp(m, quickParams());
  EXPECT_EQ(r.status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsInconsistentEqualities) {
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addEqual(LinExpr(x) + LinExpr(y), 4);
  m.addEqual(LinExpr(x) + LinExpr(y), 7);
  m.setObjective(LinExpr(x));

  LpResult r = solveLp(m, quickParams());
  EXPECT_EQ(r.status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addGreaterEqual(LinExpr(x) - LinExpr(y), 0);
  m.setObjective(-1.0 * LinExpr(x));

  LpResult r = solveLp(m, quickParams());
  EXPECT_EQ(r.status, LpStatus::Unbounded);
}

TEST(Simplex, HandlesNegativeRhs) {
  // x - y >= -5 with min x, y <= 3  => x = 0 feasible (0 - 3 = -3 >= -5).
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, 3, "y");
  m.addGreaterEqual(LinExpr(x) - LinExpr(y), -5);
  m.addGreaterEqual(LinExpr(y), 3);
  m.setObjective(LinExpr(x));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-6);
}

TEST(Simplex, ShiftedLowerBounds) {
  // min x + y with x >= 2, y >= 3, x + y >= 7 -> optimum 7.
  Model m;
  VarId x = m.addContinuous(2, kInfinity, "x");
  VarId y = m.addContinuous(3, kInfinity, "y");
  m.addGreaterEqual(LinExpr(x) + LinExpr(y), 7);
  m.setObjective(LinExpr(x) + LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
  EXPECT_GE(r.values[x], 2.0 - 1e-6);
  EXPECT_GE(r.values[y], 3.0 - 1e-6);
}

TEST(Simplex, FreeVariableSplit) {
  // min |x|-style: min y s.t. y >= x, y >= -x, x free, x >= -inf; with
  // x + 3 = 0 forced via equality  => x = -3, y = 3.
  Model m;
  VarId x = m.addContinuous(-kInfinity, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addEqual(LinExpr(x), -3);
  m.addGreaterEqual(LinExpr(y) - LinExpr(x), 0);
  m.addGreaterEqual(LinExpr(y) + LinExpr(x), 0);
  m.setObjective(LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.values[x], -3.0, 1e-6);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple constraints through the same vertex.
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addLessEqual(LinExpr(x) + LinExpr(y), 1);
  m.addLessEqual(LinExpr(x), 1);
  m.addLessEqual(LinExpr(y), 1);
  m.addLessEqual(2.0 * LinExpr(x) + 2.0 * LinExpr(y), 2);
  m.setObjective(-1.0 * LinExpr(x) - 1.0 * LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(Simplex, FixedVariable) {
  Model m;
  VarId x = m.addContinuous(4, 4, "x");
  VarId y = m.addContinuous(0, 10, "y");
  m.addLessEqual(LinExpr(x) + LinExpr(y), 9);
  m.setObjective(-1.0 * LinExpr(y));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.values[x], 4.0, 1e-6);
  EXPECT_NEAR(r.values[y], 5.0, 1e-6);
}

TEST(Simplex, BoundOverridesReplaceModelBounds) {
  // Variable bounds [2, 3] bind before the looser row x <= 100.
  Model m;
  VarId x = m.addContinuous(2, 3, "x");
  m.setObjective(-1.0 * LinExpr(x));
  m.addLessEqual(LinExpr(x), 100);

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.values[x], 3.0, 1e-6);
}

TEST(Simplex, EmptyObjectiveReturnsFeasiblePoint) {
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  m.addGreaterEqual(LinExpr(x), 5);
  m.setObjective(LinExpr(0.0));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_GE(r.values[x], 5.0 - 1e-6);
}

TEST(Simplex, BlandRuleSolvesBealeCyclingExample) {
  // Beale's classic cycling instance: Dantzig pricing with naive tie-breaks
  // cycles forever on this problem. With the Bland threshold forced to the
  // very first pivot, every iteration runs under Bland's rule, which is
  // provably cycle-free; the solve must terminate at the optimum -1/20.
  Model m;
  VarId x1 = m.addContinuous(0, kInfinity, "x1");
  VarId x2 = m.addContinuous(0, kInfinity, "x2");
  VarId x3 = m.addContinuous(0, kInfinity, "x3");
  VarId x4 = m.addContinuous(0, kInfinity, "x4");
  m.addLessEqual(0.25 * LinExpr(x1) - 60.0 * LinExpr(x2) -
                     (1.0 / 25.0) * LinExpr(x3) + 9.0 * LinExpr(x4),
                 0);
  m.addLessEqual(0.5 * LinExpr(x1) - 90.0 * LinExpr(x2) -
                     (1.0 / 50.0) * LinExpr(x3) + 3.0 * LinExpr(x4),
                 0);
  m.addLessEqual(LinExpr(x3), 1);
  m.setObjective(-0.75 * LinExpr(x1) + 150.0 * LinExpr(x2) -
                 (1.0 / 50.0) * LinExpr(x3) + 6.0 * LinExpr(x4));

  SolveParams params = quickParams();
  params.bland_iteration_override = 1;
  LpResult r = solveLp(m, params);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-6);
}

TEST(Simplex, BlandRuleMatchesDefaultOnDegenerateVertex) {
  // The anti-cycling path must land on the same optimum as default pricing
  // even when several bases describe the same degenerate vertex.
  Model m;
  VarId x = m.addContinuous(0, kInfinity, "x");
  VarId y = m.addContinuous(0, kInfinity, "y");
  m.addLessEqual(LinExpr(x) + LinExpr(y), 1);
  m.addLessEqual(LinExpr(x), 1);
  m.addLessEqual(LinExpr(y), 1);
  m.addLessEqual(2.0 * LinExpr(x) + 2.0 * LinExpr(y), 2);
  m.setObjective(-1.0 * LinExpr(x) - 1.0 * LinExpr(y));

  LpResult base = solveLp(m, quickParams());
  SolveParams bland = quickParams();
  bland.bland_iteration_override = 1;
  LpResult r = solveLp(m, bland);
  ASSERT_EQ(base.status, LpStatus::Optimal);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, base.objective, 1e-6);
}

TEST(Simplex, LargerDiet) {
  // Stigler-style diet fragment:
  // min 0.2a + 0.3b + 0.8c
  //   s.t. 60a + 80b + 150c >= 300 (cal)
  //        10a + 20b + 40c  >= 60  (protein)
  //        a, b, c >= 0
  Model m;
  VarId a = m.addContinuous(0, kInfinity, "a");
  VarId b = m.addContinuous(0, kInfinity, "b");
  VarId c = m.addContinuous(0, kInfinity, "c");
  m.addGreaterEqual(60.0 * LinExpr(a) + 80.0 * LinExpr(b) + 150.0 * LinExpr(c),
                    300);
  m.addGreaterEqual(10.0 * LinExpr(a) + 20.0 * LinExpr(b) + 40.0 * LinExpr(c),
                    60);
  m.setObjective(0.2 * LinExpr(a) + 0.3 * LinExpr(b) + 0.8 * LinExpr(c));

  LpResult r = solveLp(m, quickParams());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  // Verify feasibility and local optimality versus a few alternatives.
  EXPECT_GE(60 * r.values[a] + 80 * r.values[b] + 150 * r.values[c],
            300 - 1e-5);
  EXPECT_GE(10 * r.values[a] + 20 * r.values[b] + 40 * r.values[c], 60 - 1e-5);
  EXPECT_LE(r.objective, 0.2 * 6.0 + 1e-6);   // a=6 alone is feasible
  EXPECT_LE(r.objective, 0.3 * 3.75 + 1e-6);  // b=3.75 alone is feasible
}

}  // namespace
}  // namespace pdw::ilp
