// Warm-path tests of the LP engine: the dual-simplex re-solve must be exact
// — same status and objective as a cold solve — across randomly perturbed
// bound vectors, and branch-and-bound, which always warm-starts node LPs
// and fixes variables by reduced cost, must still find the integer optimum
// that brute-force enumeration finds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ilp/lp_backend.h"
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

/// Random bounded LP: n variables in [0, u_j], dense-ish random rows. The
/// generosity of the rhs keeps most instances feasible, but infeasible draws
/// are fine — warm and cold must agree on those too.
Model makeRandomLp(util::Rng& rng, int n, int rows) {
  Model m;
  std::vector<VarId> xs;
  LinExpr objective;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.addContinuous(0.0, static_cast<double>(rng.intIn(5, 15))));
    objective += static_cast<double>(rng.intIn(-5, 5)) * LinExpr(xs.back());
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    int terms = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.chance(0.6)) continue;
      e += static_cast<double>(rng.intIn(-3, 5)) * LinExpr(xs[static_cast<std::size_t>(j)]);
      ++terms;
    }
    if (terms == 0) e += LinExpr(xs[rng.index(xs.size())]);
    const double rhs = static_cast<double>(rng.intIn(-5, 8 * n));
    switch (rng.intIn(0, 2)) {
      case 0: m.addLessEqual(e, rhs); break;
      case 1: m.addGreaterEqual(e, -rhs); break;
      default: m.addLessEqual(e, rhs + 10.0); break;
    }
  }
  m.setObjective(objective);
  return m;
}

TEST(WarmPath, WarmMatchesColdAcrossPerturbedBounds) {
  // ~100 perturbed-bound re-solves across several random instances: the
  // warm dual path must report exactly the cold status, and the cold
  // objective when Optimal. Perturbations tighten AND loosen (loosening
  // exercises the resurrected-column repair in warmSolve).
  util::Rng rng(20240807);
  const SolveParams params = quickParams();
  int warm_used_total = 0;
  for (int inst = 0; inst < 5; ++inst) {
    const Model m = makeRandomLp(rng, 8, 6);
    const std::unique_ptr<LpBackend> warm_engine = makeLpBackend(m, params);
    const std::unique_ptr<LpBackend> cold_engine = makeLpBackend(m, params);

    std::vector<double> base_lower, base_upper;
    for (int j = 0; j < m.numVars(); ++j) {
      base_lower.push_back(m.var(j).lower);
      base_upper.push_back(m.var(j).upper);
    }
    warm_engine->coldSolve(base_lower, base_upper);

    for (int iter = 0; iter < 20; ++iter) {
      std::vector<double> lower = base_lower;
      std::vector<double> upper = base_upper;
      for (int j = 0; j < m.numVars(); ++j) {
        if (!rng.chance(0.4)) continue;
        const int hi = static_cast<int>(base_upper[static_cast<std::size_t>(j)]);
        const int a = rng.intIn(0, hi);
        const int b = rng.intIn(0, hi);
        lower[static_cast<std::size_t>(j)] = std::min(a, b);
        upper[static_cast<std::size_t>(j)] = std::max(a, b);
      }
      bool used_warm = false;
      const LpResult warm = warm_engine->solve(
          lower, upper, /*allow_warm=*/true, &used_warm);
      const LpResult cold = cold_engine->coldSolve(lower, upper);
      ASSERT_EQ(warm.status, cold.status)
          << "instance " << inst << " iteration " << iter;
      if (cold.status == LpStatus::Optimal) {
        EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
            << "instance " << inst << " iteration " << iter;
      }
      warm_used_total += used_warm ? 1 : 0;
    }
  }
  // The warm path must actually carry most of the load, not silently fall
  // back cold on every perturbation. (Not all 100: stalls and the drift
  // guards legitimately fall back.)
  EXPECT_GT(warm_used_total, 40);
}

/// Small MIP with enough branching to produce non-root node LPs.
Model makeBranchyMip(util::Rng& rng, int n) {
  Model m;
  std::vector<VarId> xs;
  LinExpr objective, capacity;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.addInteger(0, 3));
    objective += -static_cast<double>(rng.intIn(1, 9)) * LinExpr(xs.back());
    capacity += static_cast<double>(rng.intIn(1, 7)) * LinExpr(xs.back());
  }
  m.addLessEqual(capacity, 5.0 * n / 2.0);
  for (int i = 0; i + 1 < n; i += 2)
    m.addLessEqual(LinExpr(xs[static_cast<std::size_t>(i)]) +
                       LinExpr(xs[static_cast<std::size_t>(i + 1)]),
                   4);
  m.setObjective(objective);
  return m;
}

TEST(WarmPath, MipOptimumMatchesIntegerEnumeration) {
  // Warm node LPs and reduced-cost fixing are always on; neither may ever
  // change the optimum. Brute force over every integer point of the box is
  // the independent answer.
  util::Rng rng(11);
  std::int64_t warm_hits = 0, rc_fixed = 0;
  for (int inst = 0; inst < 20; ++inst) {
    const Model m = makeBranchyMip(rng, 8);
    const Solution s = solve(m, quickParams());
    const std::optional<double> optimum =
        reference::enumerateIntegerOptimum(m);
    ASSERT_TRUE(optimum.has_value()) << "instance " << inst;
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "instance " << inst;
    EXPECT_NEAR(s.objective, *optimum, 1e-6) << "instance " << inst;
    warm_hits += s.stats.warm_hits;
    rc_fixed += s.stats.rc_fixed;
  }
  // Both always-on paths actually ran under the check.
  EXPECT_GT(warm_hits, 0);
  EXPECT_GT(rc_fixed, 0);
}

TEST(WarmPath, MipStatsAccountWarmHits) {
  util::Rng rng(13);
  const Model m = makeBranchyMip(rng, 10);
  const Solution s = solve(m, quickParams());
  ASSERT_TRUE(s.hasSolution());
  // Hits and misses partition the non-root node LPs, and the hit rate on a
  // plain branchy MIP must be high — children differ from their parent by a
  // single bound.
  EXPECT_GT(s.stats.lp_solves, 1);
  EXPECT_LE(s.stats.warm_hits + s.stats.warm_misses, s.stats.lp_solves);
  EXPECT_GT(s.stats.warm_hits, 0);
  EXPECT_GE(s.stats.warm_hits,
            4 * (s.stats.warm_hits + s.stats.warm_misses) / 5);
}

}  // namespace
}  // namespace pdw::ilp
