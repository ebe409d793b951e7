// Warm-path tests of the LP engine: the dual-simplex re-solve must be exact
// — same status and objective as a cold solve — across randomly perturbed
// bound vectors, and branch-and-bound, which always warm-starts node LPs
// and fixes variables by reduced cost, must still find the integer optimum
// that brute-force enumeration finds. The engine's wall-clock budget is
// tested here too: it stops an LP with IterLimit without taking the
// degenerate-stall path, and a budget that never binds changes nothing. So
// is the objective cutoff: one no node bound exceeds changes nothing, one at
// the optimum finds it, one below finds nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ilp/branch_bound.h"
#include "ilp/lp_backend.h"
#include "ilp/solver.h"
#include "obs/flight.h"
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
    warm_engine->solve(base_lower, base_upper, /*allow_warm=*/false);

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
      const LpResult cold =
          cold_engine->solve(lower, upper, /*allow_warm=*/false);
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

// dual_pivots counts the pivots of warm re-solves only (DESIGN.md §10.2),
// although cold solves run the same dual simplex: a cold pivot counts only
// in simplex_iterations.

TEST(WarmPath, IntegralRootReportsNoDualPivots) {
  // max x + y over integers in [0, 3] with x + y <= 4. The cold start rests
  // both at 3, and one pivot reaches the integral vertex (1, 3), so the root
  // is the only node and no LP is warm.
  Model m;
  const VarId x = m.addInteger(0, 3);
  const VarId y = m.addInteger(0, 3);
  m.addLessEqual(LinExpr(x) + LinExpr(y), 4);
  m.setObjective(-LinExpr(x) - LinExpr(y));
  const Solution s = solve(m, quickParams());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-9);
  EXPECT_EQ(s.stats.nodes_explored, 1);
  EXPECT_GT(s.stats.simplex_iterations, 0);
  EXPECT_EQ(s.stats.dual_pivots, 0);
}

TEST(WarmPath, DualPivotsCountOnlyWarmResolves) {
  util::Rng rng(13);
  const Model m = makeBranchyMip(rng, 10);
  const Solution s = solve(m, quickParams());
  ASSERT_TRUE(s.hasSolution());
  EXPECT_GT(s.stats.warm_hits, 0);
  EXPECT_GT(s.stats.dual_pivots, 0);
  // The cold root's pivots are iterations, not dual pivots.
  EXPECT_LT(s.stats.dual_pivots, s.stats.simplex_iterations);
}

// ---- wall-clock budget ------------------------------------------------

std::vector<double> modelLower(const Model& m) {
  std::vector<double> out;
  for (int j = 0; j < m.numVars(); ++j) out.push_back(m.var(j).lower);
  return out;
}

std::vector<double> modelUpper(const Model& m) {
  std::vector<double> out;
  for (int j = 0; j < m.numVars(); ++j) out.push_back(m.var(j).upper);
  return out;
}

/// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x + y >= 1, x, y in [0, 3];
/// optimum x = 3, y = 1. A cold solve rests both columns at 3, where both
/// <= rows are violated, so it takes dual pivots.
Model makeSmallLp() {
  Model m;
  const VarId x = m.addContinuous(0, 3);
  const VarId y = m.addContinuous(0, 3);
  m.addLessEqual(LinExpr(x) + LinExpr(y), 4);
  m.addLessEqual(LinExpr(x) + 3.0 * LinExpr(y), 6);
  m.addGreaterEqual(LinExpr(x) + LinExpr(y), 1);
  m.setObjective(-3.0 * LinExpr(x) - 2.0 * LinExpr(y));
  return m;
}

TEST(EngineDeadline, ExpiredBudgetStopsBeforeAnyWork) {
  const Model m = makeSmallLp();
  SolveParams params;
  params.time_limit_seconds = 0.0;
  obs::FlightConfig config;
  config.enabled = true;
  obs::FlightRecorder flight(config, "canonical");
  const std::unique_ptr<LpBackend> engine = makeLpBackend(m, params);
  engine->setFlightRecorder(&flight);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const LpResult cold =
      engine->solve(modelLower(m), modelUpper(m), /*allow_warm=*/false);
  EXPECT_EQ(cold.status, LpStatus::IterLimit);
  EXPECT_EQ(cold.iterations, 0);
  EXPECT_EQ(cold.factorizations, 0);

  bool used_warm = true;
  const LpResult again = engine->solve(modelLower(m), modelUpper(m),
                                       /*allow_warm=*/true, &used_warm);
  EXPECT_EQ(again.status, LpStatus::IterLimit);
  EXPECT_FALSE(used_warm);  // nothing was warm to start from
  EXPECT_EQ(again.factorizations, 0);
  // No reload, no refactorization, no stall: the stop costs nothing.
  EXPECT_EQ(flight.count(obs::FlightEventKind::Refactorization), 0);
  EXPECT_EQ(flight.count(obs::FlightEventKind::DualStall), 0);
}

TEST(EngineDeadline, BudgetRunningOutMidSearchIsNotAWarmMiss) {
  const Model m = makeSmallLp();
  SolveParams params;
  params.time_limit_seconds = 0.2;
  obs::FlightConfig config;
  config.enabled = true;
  obs::FlightRecorder flight(config, "canonical");
  const std::unique_ptr<LpBackend> engine = makeLpBackend(m, params);
  engine->setFlightRecorder(&flight);

  const LpResult cold =
      engine->solve(modelLower(m), modelUpper(m), /*allow_warm=*/false);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  const std::int64_t refactorizations =
      flight.count(obs::FlightEventKind::Refactorization);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // A branch-and-bound child: the warm path takes it, and the budget stops
  // it there. It is neither a degenerate stall nor a cold fallback.
  std::vector<double> upper = modelUpper(m);
  upper[0] = 2.0;
  bool used_warm = false;
  const LpResult child =
      engine->solve(modelLower(m), upper, /*allow_warm=*/true, &used_warm);
  EXPECT_EQ(child.status, LpStatus::IterLimit);
  EXPECT_TRUE(used_warm);
  EXPECT_EQ(child.factorizations, 0);
  EXPECT_EQ(flight.count(obs::FlightEventKind::DualStall), 0);
  EXPECT_EQ(flight.count(obs::FlightEventKind::Refactorization),
            refactorizations);
}

TEST(EngineDeadline, TinyTimeLimitStopsLpAndMip) {
  SolveParams params;
  params.time_limit_seconds = 0.0;

  // Pure LP: solveMip hands it to one cold solve, which is out of time.
  const Solution lp = solveMip(makeSmallLp(), params);
  EXPECT_EQ(lp.status, SolveStatus::IterLimit);
  EXPECT_EQ(lp.stats.simplex_iterations, 0);

  // MIP: the search stops on the budget.
  util::Rng rng(17);
  const Solution mip = solveMip(makeBranchyMip(rng, 10), params);
  EXPECT_TRUE(mip.status == SolveStatus::TimeLimit ||
              mip.status == SolveStatus::IterLimit)
      << toString(mip.status);
  EXPECT_FALSE(mip.hasSolution());
}

void expectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(EngineDeadline, NeverBindingLimitIsBitIdentical) {
  // 3600 s gives every engine a finite deadline it never reaches; 1e12 s
  // gives none at all. The two runs must do exactly the same work.
  SolveParams finite;
  finite.time_limit_seconds = 3600.0;
  SolveParams unbounded;
  unbounded.time_limit_seconds = 1e12;

  util::Rng rng(23);
  std::int64_t nodes = 0;
  for (int inst = 0; inst < 5; ++inst) {
    const Model m = makeBranchyMip(rng, 12);
    const Solution a = solveMip(m, finite);
    const Solution b = solveMip(m, unbounded);
    ASSERT_EQ(a.status, b.status) << "instance " << inst;
    EXPECT_EQ(std::memcmp(&a.objective, &b.objective, sizeof(double)), 0);
    expectSameBits(a.values, b.values);
    EXPECT_EQ(a.stats.nodes_explored, b.stats.nodes_explored);
    EXPECT_EQ(a.stats.simplex_iterations, b.stats.simplex_iterations);
    EXPECT_EQ(a.stats.refactorizations, b.stats.refactorizations);
    EXPECT_EQ(a.stats.warm_hits, b.stats.warm_hits);
    nodes += a.stats.nodes_explored;
  }
  // The search branched, so it ran under the check.
  EXPECT_GT(nodes, 5);

  const Model lp = makeRandomLp(rng, 30, 20);
  const std::unique_ptr<LpBackend> a = makeLpBackend(lp, finite);
  const std::unique_ptr<LpBackend> b = makeLpBackend(lp, unbounded);
  const LpResult ra =
      a->solve(modelLower(lp), modelUpper(lp), /*allow_warm=*/false);
  const LpResult rb =
      b->solve(modelLower(lp), modelUpper(lp), /*allow_warm=*/false);
  ASSERT_EQ(ra.status, rb.status);
  EXPECT_EQ(ra.iterations, rb.iterations);
  expectSameBits(ra.values, rb.values);
}

// ---- Objective cutoff ------------------------------------------------------

/// The largest value `model`'s objective takes on its variables' bound box:
/// no node bound of any search can exceed it.
double boxMaximum(const Model& model) {
  double most = model.objective().constant();
  for (const auto& [v, coeff] : model.objective().terms())
    most += std::max(coeff * model.var(v).lower, coeff * model.var(v).upper);
  return most;
}

void expectSameSearch(const Solution& a, const Solution& b, int inst) {
  ASSERT_EQ(a.status, b.status) << "instance " << inst;
  EXPECT_EQ(std::memcmp(&a.objective, &b.objective, sizeof(double)), 0)
      << "instance " << inst;
  expectSameBits(a.values, b.values);
  // Every SolveStats field but wall_seconds, which is a clock reading.
  const SolveStats& x = a.stats;
  const SolveStats& y = b.stats;
  EXPECT_EQ(x.simplex_iterations, y.simplex_iterations) << "instance " << inst;
  EXPECT_EQ(x.nodes_explored, y.nodes_explored) << "instance " << inst;
  EXPECT_EQ(std::memcmp(&x.best_bound, &y.best_bound, sizeof(double)), 0)
      << "instance " << inst;
  EXPECT_EQ(x.lazy_rows, y.lazy_rows);
  EXPECT_EQ(x.lp_solves, y.lp_solves);
  EXPECT_EQ(x.warm_hits, y.warm_hits);
  EXPECT_EQ(x.warm_misses, y.warm_misses);
  EXPECT_EQ(x.dual_pivots, y.dual_pivots);
  EXPECT_EQ(x.rc_fixed, y.rc_fixed);
  EXPECT_EQ(x.refactorizations, y.refactorizations);
}

TEST(Cutoff, AboveEveryBoundIsBitIdentical) {
  // A cutoff no node bound can exceed prunes nothing: the search is the
  // uncut one, pivot for pivot.
  util::Rng rng(2901);
  std::int64_t nodes = 0;
  for (int inst = 0; inst < 30; ++inst) {
    const Model m = makeBranchyMip(rng, 6 + inst % 5);
    SolveParams cut = quickParams();
    cut.objective_cutoff = boxMaximum(m) + 1.0;
    const Solution plain = solve(m, quickParams());
    const Solution with_cutoff = solve(m, cut);
    expectSameSearch(plain, with_cutoff, inst);
    nodes += plain.stats.nodes_explored;
  }
  EXPECT_GT(nodes, 30);  // the searches branched
}

TEST(Cutoff, AtTheOptimumFindsItBelowFindsNothing) {
  // A point as good as the cutoff still counts as a find; with the cutoff
  // below the optimum the search exhausts its nodes and reports Infeasible,
  // with no values to read.
  util::Rng rng(2902);
  for (int inst = 0; inst < 30; ++inst) {
    const Model m = makeBranchyMip(rng, 6 + inst % 4);
    const std::optional<double> optimum =
        reference::enumerateIntegerOptimum(m);
    ASSERT_TRUE(optimum.has_value()) << "instance " << inst;

    SolveParams at = quickParams();
    at.objective_cutoff = *optimum;
    const Solution found = solve(m, at);
    ASSERT_EQ(found.status, SolveStatus::Optimal) << "instance " << inst;
    EXPECT_NEAR(found.objective, *optimum, 1e-6) << "instance " << inst;
    EXPECT_TRUE(m.isFeasible(found.values)) << "instance " << inst;

    // Objective coefficients are integers, so no point lies in between.
    SolveParams below = quickParams();
    below.objective_cutoff = *optimum - 0.5;
    const Solution none = solve(m, below);
    EXPECT_EQ(none.status, SolveStatus::Infeasible) << "instance " << inst;
    EXPECT_FALSE(none.hasSolution()) << "instance " << inst;
    EXPECT_THROW(none.value(0), std::out_of_range) << "instance " << inst;
  }
}

TEST(Cutoff, WarmStartAboveTheCutoffIsIgnored) {
  // The all-zero point is feasible (objective 0) and lies above a cutoff
  // below the optimum, so it may not come back as the answer.
  util::Rng rng(2903);
  const Model m = makeBranchyMip(rng, 7);
  const std::optional<double> optimum = reference::enumerateIntegerOptimum(m);
  ASSERT_TRUE(optimum.has_value());
  SolveParams params = quickParams();
  params.warm_start.assign(static_cast<std::size_t>(m.numVars()), 0.0);
  params.objective_cutoff = *optimum - 0.5;
  const Solution s = solve(m, params);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

}  // namespace
}  // namespace pdw::ilp
