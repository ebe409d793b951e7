// MILP solver tests: knapsacks, big-M disjunctions (the paper's scheduling
// pattern), set covering (the wash-path pattern), infeasible integer models,
// limits, and randomized cross-checks against brute force.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>

#include "ilp/branch_bound.h"
#include "ilp/solver.h"
#include "reference_lp.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

SolveParams quickParams() {
  SolveParams p;
  p.time_limit_seconds = 10.0;
  return p;
}

TEST(Mip, SmallKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a=1,c=1 (17)
  // vs b=1,c=1 (20, weight 6 ok) -> optimum 20.
  Model m;
  VarId a = m.addBinary("a");
  VarId b = m.addBinary("b");
  VarId c = m.addBinary("c");
  m.addLessEqual(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c), 6);
  m.setObjective(-10.0 * LinExpr(a) - 13.0 * LinExpr(b) - 7.0 * LinExpr(c));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -20.0, 1e-6);
  EXPECT_FALSE(s.boolValue(a));
  EXPECT_TRUE(s.boolValue(b));
  EXPECT_TRUE(s.boolValue(c));
}

TEST(Mip, IntegerRounding) {
  // min x s.t. 2x >= 7, x integer -> x = 4 (LP gives 3.5).
  Model m;
  VarId x = m.addInteger(0, 100, "x");
  m.addGreaterEqual(2.0 * LinExpr(x), 7);
  m.setObjective(LinExpr(x));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[x], 4.0, 1e-6);
}

TEST(Mip, BigMDisjunction) {
  // Two "tasks" of duration 5 on one resource: t1, t2 in [0, 100],
  // either t1 + 5 <= t2 or t2 + 5 <= t1 (big-M with order binary).
  // Minimize makespan -> 10.
  constexpr double kBigM = 1000.0;
  Model m;
  VarId t1 = m.addContinuous(0, 100, "t1");
  VarId t2 = m.addContinuous(0, 100, "t2");
  VarId order = m.addBinary("order");
  VarId makespan = m.addContinuous(0, 200, "makespan");
  // t2 >= t1 + 5 - M*(1-order)
  m.addGreaterEqual(LinExpr(t2) - LinExpr(t1) + kBigM * LinExpr(order),
                    5.0);
  // t1 >= t2 + 5 - M*order
  m.addGreaterEqual(LinExpr(t1) - LinExpr(t2) - kBigM * LinExpr(order),
                    5.0 - kBigM);
  m.addGreaterEqual(LinExpr(makespan) - LinExpr(t1), 5.0);
  m.addGreaterEqual(LinExpr(makespan) - LinExpr(t2), 5.0);
  m.setObjective(LinExpr(makespan));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-5);
  EXPECT_NEAR(std::abs(s.values[t1] - s.values[t2]), 5.0, 1e-5);
}

TEST(Mip, SetCover) {
  // Universe {1..4}; sets A={1,2}, B={2,3}, C={3,4}, D={1,4}, E={1,2,3,4}
  // with cost 1 each except E costs 1.5. Optimal: E (1.5) vs A+C (2) -> E.
  Model m;
  VarId A = m.addBinary("A");
  VarId B = m.addBinary("B");
  VarId C = m.addBinary("C");
  VarId D = m.addBinary("D");
  VarId E = m.addBinary("E");
  m.addGreaterEqual(LinExpr(A) + LinExpr(D) + LinExpr(E), 1);  // elem 1
  m.addGreaterEqual(LinExpr(A) + LinExpr(B) + LinExpr(E), 1);  // elem 2
  m.addGreaterEqual(LinExpr(B) + LinExpr(C) + LinExpr(E), 1);  // elem 3
  m.addGreaterEqual(LinExpr(C) + LinExpr(D) + LinExpr(E), 1);  // elem 4
  m.setObjective(LinExpr(A) + LinExpr(B) + LinExpr(C) + LinExpr(D) +
                 1.5 * LinExpr(E));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-6);
  EXPECT_TRUE(s.boolValue(E));
}

TEST(Mip, InfeasibleIntegerModel) {
  // 2 <= 3x <= 4 has no integer solution (x would be in [2/3, 4/3], only
  // x=1 -> 3, which IS in range... make it truly empty: 4 <= 3x <= 5).
  Model m;
  VarId x = m.addInteger(0, 10, "x");
  m.addGreaterEqual(3.0 * LinExpr(x), 4);
  m.addLessEqual(3.0 * LinExpr(x), 5);
  m.setObjective(LinExpr(x));

  Solution s = solve(m, quickParams());
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(Mip, ReadingAVariableOfAnInfeasibleSolveThrows) {
  // A solve without a solution carries no values; reading one fails loudly
  // instead of reading past the end of an empty vector.
  Model m;
  VarId x = m.addInteger(0, 10, "x");
  m.addGreaterEqual(3.0 * LinExpr(x), 4);
  m.addLessEqual(3.0 * LinExpr(x), 5);
  m.setObjective(LinExpr(x));

  const Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Infeasible);
  EXPECT_THROW(s.value(x), std::out_of_range);
  EXPECT_THROW(s.boolValue(x), std::out_of_range);
}

TEST(Mip, PureLpPassThrough) {
  Model m;
  VarId x = m.addContinuous(0, 4, "x");
  m.setObjective(-1.0 * LinExpr(x));
  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-6);
}

TEST(Mip, EqualityWithBinaries) {
  // x + y + z = 2 (binary), minimize x -> x=0, exactly two of y,z set.
  Model m;
  VarId x = m.addBinary("x");
  VarId y = m.addBinary("y");
  VarId z = m.addBinary("z");
  m.addEqual(LinExpr(x) + LinExpr(y) + LinExpr(z), 2);
  m.setObjective(LinExpr(x));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-6);
  EXPECT_TRUE(s.boolValue(y));
  EXPECT_TRUE(s.boolValue(z));
}

TEST(Mip, GeneralIntegerVariables) {
  // min 3x + 4y s.t. 5x + 7y >= 31, x,y integer >= 0.
  // Brute force best: y=3,x=2 -> 18 (5*2+21=31). Check.
  Model m;
  VarId x = m.addInteger(0, 20, "x");
  VarId y = m.addInteger(0, 20, "y");
  m.addGreaterEqual(5.0 * LinExpr(x) + 7.0 * LinExpr(y), 31);
  m.setObjective(3.0 * LinExpr(x) + 4.0 * LinExpr(y));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  double best = 1e18;
  for (int xi = 0; xi <= 20; ++xi)
    for (int yi = 0; yi <= 20; ++yi)
      if (5 * xi + 7 * yi >= 31) best = std::min(best, 3.0 * xi + 4.0 * yi);
  EXPECT_NEAR(s.objective, best, 1e-6);
}

TEST(Mip, IterationBudgetWithoutIncumbentReportsIterLimit) {
  // 2 * sum(x) = 7 has no integer solution, but every node whose fixings
  // leave a free variable has a feasible (fractional) LP. The search can
  // therefore never find an incumbent and runs until a budget stops it;
  // here the simplex-iteration budget does, long before the node budget.
  Model m;
  LinExpr twice_sum, objective;
  for (int i = 0; i < 8; ++i) {
    const VarId x = m.addBinary();
    twice_sum += 2.0 * LinExpr(x);
    objective += static_cast<double>(i + 1) * LinExpr(x);
  }
  m.addEqual(twice_sum, 7);
  m.setObjective(objective);

  // solveMip runs the search without presolve.
  SolveParams params = quickParams();
  params.simplex_iteration_limit = 40;
  const Solution s = solveMip(m, params);
  EXPECT_EQ(s.status, SolveStatus::IterLimit);
  EXPECT_FALSE(s.hasSolution());
  EXPECT_GE(s.stats.simplex_iterations, params.simplex_iteration_limit);
  EXPECT_GT(s.stats.nodes_explored, 1);  // stopped by the search, not the root
  EXPECT_LT(s.stats.nodes_explored, params.node_limit);
}

TEST(Mip, StatsArePopulated) {
  Model m;
  VarId x = m.addBinary("x");
  VarId y = m.addBinary("y");
  m.addLessEqual(LinExpr(x) + LinExpr(y), 1);
  m.setObjective(-1.0 * LinExpr(x) - 1.0 * LinExpr(y));
  Solution s = solve(m, quickParams());
  ASSERT_TRUE(s.hasSolution());
  EXPECT_GE(s.stats.nodes_explored + s.stats.simplex_iterations, 1);
  EXPECT_GE(s.stats.wall_seconds, 0.0);
}

// Randomized cross-check: small binary knapsacks vs exhaustive enumeration.
class MipRandomKnapsack : public ::testing::TestWithParam<int> {};

TEST_P(MipRandomKnapsack, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = rng.intIn(4, 9);
  std::vector<double> weight(static_cast<std::size_t>(n));
  std::vector<double> value(static_cast<std::size_t>(n));
  double capacity = 0;
  for (int i = 0; i < n; ++i) {
    weight[static_cast<std::size_t>(i)] = rng.intIn(1, 12);
    value[static_cast<std::size_t>(i)] = rng.intIn(1, 20);
    capacity += weight[static_cast<std::size_t>(i)];
  }
  capacity = std::floor(capacity * 0.45);

  Model m;
  std::vector<VarId> vars;
  LinExpr total_weight, total_value;
  for (int i = 0; i < n; ++i) {
    VarId v = m.addBinary();
    vars.push_back(v);
    total_weight += weight[static_cast<std::size_t>(i)] * LinExpr(v);
    total_value += value[static_cast<std::size_t>(i)] * LinExpr(v);
  }
  m.addLessEqual(total_weight, capacity);
  m.setObjective(-1.0 * total_value);

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal) << "seed " << GetParam();

  double best = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double w = 0, val = 0;
    for (int i = 0; i < n; ++i)
      if (mask & (1 << i)) {
        w += weight[static_cast<std::size_t>(i)];
        val += value[static_cast<std::size_t>(i)];
      }
    if (w <= capacity) best = std::max(best, val);
  }
  EXPECT_NEAR(-s.objective, best, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipRandomKnapsack, ::testing::Range(0, 25));

// Randomized cross-check: big-M single-machine scheduling vs permutation
// brute force (this is exactly the structure of the paper's eqs. 3/8/19/20).
class MipRandomScheduling : public ::testing::TestWithParam<int> {};

TEST_P(MipRandomScheduling, MatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n = rng.intIn(2, 4);
  std::vector<double> duration(static_cast<std::size_t>(n));
  std::vector<double> release(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    duration[static_cast<std::size_t>(i)] = rng.intIn(1, 6);
    release[static_cast<std::size_t>(i)] = rng.intIn(0, 8);
  }

  constexpr double kBigM = 1000.0;
  Model m;
  std::vector<VarId> start(static_cast<std::size_t>(n));
  VarId makespan = m.addContinuous(0, kBigM, "makespan");
  for (int i = 0; i < n; ++i) {
    start[static_cast<std::size_t>(i)] = m.addContinuous(
        release[static_cast<std::size_t>(i)], kBigM);
    m.addGreaterEqual(LinExpr(makespan) -
                          LinExpr(start[static_cast<std::size_t>(i)]),
                      duration[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      VarId order = m.addBinary();
      // start_j >= start_i + dur_i - M*(1-order)
      m.addGreaterEqual(LinExpr(start[static_cast<std::size_t>(j)]) -
                            LinExpr(start[static_cast<std::size_t>(i)]) +
                            kBigM * LinExpr(order),
                        duration[static_cast<std::size_t>(i)]);
      // start_i >= start_j + dur_j - M*order
      m.addGreaterEqual(LinExpr(start[static_cast<std::size_t>(i)]) -
                            LinExpr(start[static_cast<std::size_t>(j)]) -
                            kBigM * LinExpr(order),
                        duration[static_cast<std::size_t>(j)] - kBigM);
    }
  m.setObjective(LinExpr(makespan));

  Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal) << "seed " << GetParam();

  // Brute force over all permutations.
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  double best = 1e18;
  do {
    double t = 0;
    for (int idx : perm) {
      t = std::max(t, release[static_cast<std::size_t>(idx)]) +
          duration[static_cast<std::size_t>(idx)];
    }
    best = std::min(best, t);
  } while (std::next_permutation(perm.begin(), perm.end()));

  EXPECT_NEAR(s.objective, best, 1e-5) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipRandomScheduling, ::testing::Range(0, 20));

TEST(PseudocostBranching, KnapsackOptimaMatchEnumeration) {
  // Pseudocost branching (most-fractional until a pseudocost is observed)
  // against brute force over all 2^10 points of each knapsack.
  util::Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 10;
    Model m;
    LinExpr weight, value;
    double capacity = 0;
    for (int j = 0; j < n; ++j) {
      const VarId v = m.addBinary();
      const double w = static_cast<double>(rng.intIn(1, 12));
      weight += w * LinExpr(v);
      value += static_cast<double>(rng.intIn(1, 25)) * LinExpr(v);
      capacity += w;
    }
    m.addLessEqual(weight, capacity * 0.5);
    m.setObjective(-1.0 * value);

    const Solution s = solve(m, SolveParams{});
    const std::optional<double> optimum =
        reference::enumerateIntegerOptimum(m);
    ASSERT_TRUE(optimum.has_value()) << "trial " << trial;
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(s.objective, *optimum, 1e-6) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pdw::ilp
