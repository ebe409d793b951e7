// Cutting-plane and probing-presolve tests (ilp/cuts.h, ilp/presolve.h):
//  * Gomory mixed-integer cuts derived from the engine's optimal tableau
//    cut off the fractional vertex they came from but never an
//    integer-feasible point (brute-force checked),
//  * knapsack-cover cuts separate violated minimal covers and stay valid,
//  * the root separation loop never changes the MIP optimum (cuts on/off
//    solve equivalence) while shrinking the tree,
//  * probing fixes binaries whose one branch propagates to infeasibility,
//  * coefficient strengthening shrinks big-M coefficients without touching
//    the 0/1 solution set.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ilp/branch_bound.h"
#include "ilp/cuts.h"
#include "ilp/lp_backend.h"
#include "ilp/model.h"
#include "ilp/presolve.h"
#include "ilp/revised_simplex.h"
#include "ilp/solver.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "reference_lp.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

double evalCut(const Cut& cut, const std::vector<double>& x) {
  double lhs = 0.0;
  for (const auto& [v, c] : cut.terms)
    lhs += c * x[static_cast<std::size_t>(v)];
  return lhs;
}

/// Every 0/1 assignment of the model's variables that is model-feasible
/// (all variables must be binary; brute force, so keep n small).
std::vector<std::vector<double>> feasibleBinaryPoints(const Model& model) {
  const int n = model.numVars();
  std::vector<std::vector<double>> points;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = (mask >> j) & 1;
    if (model.isFeasible(x)) points.push_back(std::move(x));
  }
  return points;
}

std::vector<double> lowerBounds(const Model& model) {
  std::vector<double> out;
  for (const Variable& v : model.vars()) out.push_back(v.lower);
  return out;
}

std::vector<double> upperBounds(const Model& model) {
  std::vector<double> out;
  for (const Variable& v : model.vars()) out.push_back(v.upper);
  return out;
}

TEST(GmiCuts, CutsOffFractionalVertexKeepsIntegerPoints) {
  // min -2x - y  s.t. 2x + 2y <= 3, x,y binary. Unique LP optimum
  // (1, 0.5): x at its upper bound, y basic and fractional. The GMI cut
  // from y's tableau row must cut the vertex off while every feasible 0/1
  // point — (0,0), (1,0), (0,1) — survives.
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  m.addLessEqual(2.0 * LinExpr(x) + 2.0 * LinExpr(y), 3.0);
  m.setObjective(-2.0 * LinExpr(x) - 1.0 * LinExpr(y));

  SolveParams params;
  const auto backend = makeLpBackend(m, params);
  const LpResult lp = backend->coldSolve(lowerBounds(m), upperBounds(m));
  ASSERT_EQ(lp.status, LpStatus::Optimal);
  EXPECT_NEAR(lp.values[static_cast<std::size_t>(x)], 1.0, 1e-7);
  EXPECT_NEAR(lp.values[static_cast<std::size_t>(y)], 0.5, 1e-7);

  LpBackend::TableauRowView view;
  ASSERT_TRUE(backend->tableauRow(y, &view));
  const std::optional<Cut> cut = gmiCut(view, m);
  ASSERT_TRUE(cut.has_value());

  EXPECT_GT(evalCut(*cut, lp.values), cut->rhs + 1e-6)
      << "cut must cut off the fractional vertex";
  for (const std::vector<double>& p : feasibleBinaryPoints(m))
    EXPECT_LE(evalCut(*cut, p), cut->rhs + 1e-7)
        << "cut removed integer point (" << p[0] << ", " << p[1] << ")";
}

TEST(GmiCuts, ValidOnRandomKnapsacks) {
  // Randomized sweep: on small random knapsacks, derive a GMI cut from
  // every fractional basic structural variable of the optimal tableau and
  // brute-force check it against all feasible 0/1 points.
  util::Rng rng(99);
  int cuts_checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6 + static_cast<int>(rng.intIn(0, 4));  // 6..10 binaries
    Model m;
    LinExpr weight, value;
    double capacity = 0;
    for (int j = 0; j < n; ++j) {
      const VarId v = m.addBinary();
      const double w = static_cast<double>(rng.intIn(1, 15));
      weight += w * LinExpr(v);
      value += static_cast<double>(rng.intIn(1, 20)) * LinExpr(v);
      capacity += w;
    }
    m.addLessEqual(weight, std::floor(capacity * 0.45));
    m.setObjective(-1.0 * value);

    SolveParams params;
    const auto backend = makeLpBackend(m, params);
    const LpResult lp = backend->coldSolve(lowerBounds(m), upperBounds(m));
    if (lp.status != LpStatus::Optimal) continue;

    const std::vector<std::vector<double>> points = feasibleBinaryPoints(m);
    for (VarId v = 0; v < m.numVars(); ++v) {
      const double val = lp.values[static_cast<std::size_t>(v)];
      if (std::abs(val - std::round(val)) < 1e-6) continue;
      LpBackend::TableauRowView view;
      if (!backend->tableauRow(v, &view)) continue;
      const std::optional<Cut> cut = gmiCut(view, m);
      if (!cut) continue;
      ++cuts_checked;
      EXPECT_GT(evalCut(*cut, lp.values), cut->rhs - 1e-9)
          << "trial " << trial << " var " << v;
      for (const std::vector<double>& p : points)
        ASSERT_LE(evalCut(*cut, p), cut->rhs + 1e-7)
            << "trial " << trial << " var " << v
            << ": GMI cut removed a feasible integer point";
    }
  }
  EXPECT_GT(cuts_checked, 5) << "sweep separated almost no cuts";
}

TEST(CoverCuts, SeparatesViolatedMinimalCover) {
  // 3a + 4b + 2c <= 6. LP point (1, 0.75, 0) violates the cover {a, b}
  // (weight 7 > 6): a + b <= 1 is valid and cuts the point off.
  Model m;
  const VarId a = m.addBinary("a");
  const VarId b = m.addBinary("b");
  m.addBinary("c");
  m.addLessEqual(3.0 * LinExpr(a) + 4.0 * LinExpr(b), 6.0);

  const std::vector<double> x = {1.0, 0.75, 0.0};
  std::vector<Cut> cuts;
  coverCuts(m, x, &cuts);
  ASSERT_FALSE(cuts.empty());
  const std::vector<std::vector<double>> points = feasibleBinaryPoints(m);
  for (const Cut& cut : cuts) {
    EXPECT_EQ(cut.family, CutFamily::Cover);
    EXPECT_GT(evalCut(cut, x), cut.rhs + 1e-6);
    for (const std::vector<double>& p : points)
      EXPECT_LE(evalCut(cut, p), cut.rhs + 1e-7)
          << "cover cut removed a feasible integer point";
  }
}

TEST(CoverCuts, HandlesNegativeCoefficientsByComplementing) {
  // 4a - 3b <= 1 complements b (z = 1 - b): 4a + 3z <= 4. The fractional
  // point (0.9, 0.2) violates the cover {a, z}; the emitted cut (with b
  // substituted back) must hold on all four feasible 0/1 points.
  Model m;
  const VarId a = m.addBinary("a");
  const VarId b = m.addBinary("b");
  m.addLessEqual(4.0 * LinExpr(a) - 3.0 * LinExpr(b), 1.0);

  const std::vector<double> x = {0.9, 0.2};
  std::vector<Cut> cuts;
  coverCuts(m, x, &cuts);
  ASSERT_FALSE(cuts.empty());
  for (const Cut& cut : cuts) {
    EXPECT_GT(evalCut(cut, x), cut.rhs + 1e-6);
    for (const std::vector<double>& p : feasibleBinaryPoints(m))
      EXPECT_LE(evalCut(cut, p), cut.rhs + 1e-7);
  }
}

TEST(CutPoolTest, DeduplicatesScaledRederivations) {
  CutPool pool;
  Cut cut;
  cut.terms = {{0, 1.0}, {2, -0.5}};
  cut.rhs = 1.0;
  EXPECT_TRUE(pool.add(cut));
  EXPECT_FALSE(pool.add(cut)) << "exact duplicate must be rejected";
  Cut scaled;  // same halfspace, scaled by 2: also a duplicate
  scaled.terms = {{0, 2.0}, {2, -1.0}};
  scaled.rhs = 2.0;
  EXPECT_FALSE(pool.add(scaled));
  Cut other;
  other.terms = {{0, 1.0}, {3, -0.5}};
  other.rhs = 1.0;
  EXPECT_TRUE(pool.add(other));
  EXPECT_EQ(pool.size(), 2u);
}

/// Cuts must never change the optimum, only the tree size: solve() (root
/// cuts, probing and coefficient tightening all on) matches brute force.
TEST(CutsSolve, OnOffObjectiveEquivalence) {
  util::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 8 + static_cast<int>(rng.intIn(0, 6));
    Model m;
    LinExpr weight, value;
    double capacity = 0;
    for (int j = 0; j < n; ++j) {
      const VarId v = m.addBinary();
      const double w = static_cast<double>(rng.intIn(1, 20));
      weight += w * LinExpr(v);
      value += static_cast<double>(rng.intIn(1, 30)) * LinExpr(v);
      capacity += w;
    }
    m.addLessEqual(weight, capacity * 0.4);
    m.setObjective(-1.0 * value);

    const Solution a = solve(m, SolveParams{});
    const std::optional<double> optimum =
        reference::enumerateIntegerOptimum(m);
    ASSERT_TRUE(optimum.has_value()) << "trial " << trial;
    ASSERT_EQ(a.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(a.objective, *optimum, 1e-6) << "trial " << trial;
  }
}

TEST(CutsSolve, RootSeparationReportsStats) {
  // 2x + 2y <= 3 with min -2x - y has the fractional root (1, 0.5); the
  // cover {x, y} (and usually a GMI) must fire, and the stats must
  // propagate into the solution.
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  m.addLessEqual(2.0 * LinExpr(x) + 2.0 * LinExpr(y), 3.0);
  m.setObjective(-2.0 * LinExpr(x) - 1.0 * LinExpr(y));

  // solveMip skips presolve, which keeps the fractional root intact.
  const Solution s = solveMip(m, SolveParams{});
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-6);
  EXPECT_GE(s.stats.cuts.added, 1);
  EXPECT_GE(s.stats.cuts.rounds, 1);
  EXPECT_EQ(s.stats.cuts.added, s.stats.cuts.gomory + s.stats.cuts.cover);
}

/// What the engine of the root cut loop reported, call by call.
struct CutLoopLpLog {
  int add_cut_calls = 0;
  std::int64_t iterations = 0;
  std::int64_t factorizations = 0;
};
CutLoopLpLog g_cut_loop_log;

/// The production engine, logging the work each call reports.
class LoggingBackend final : public LpBackend {
 public:
  LoggingBackend(const Model& model, const SolveParams& params)
      : inner_(model, params) {}
  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper, bool allow_warm,
                 bool* used_warm = nullptr,
                 std::int64_t* dual_pivots = nullptr) override {
    return log(inner_.solve(lower, upper, allow_warm, used_warm, dual_pivots));
  }
  LpResult coldSolve(const std::vector<double>& lower,
                     const std::vector<double>& upper) override {
    return log(inner_.coldSolve(lower, upper));
  }
  bool warmReady() const override { return inner_.warmReady(); }
  void collectReducedCostFixes(double gap,
                               std::vector<Fix>* out) const override {
    inner_.collectReducedCostFixes(gap, out);
  }
  bool tableauRow(VarId var, TableauRowView* out) const override {
    return inner_.tableauRow(var, out);
  }
  void addCutRows(const std::vector<CutRow>& rows) override {
    ++g_cut_loop_log.add_cut_calls;
    inner_.addCutRows(rows);
  }
  void setFlightRecorder(obs::FlightRecorder* recorder) override {
    inner_.setFlightRecorder(recorder);
  }

 private:
  static LpResult log(LpResult r) {
    g_cut_loop_log.iterations += r.iterations;
    g_cut_loop_log.factorizations += r.factorizations;
    return r;
  }
  RevisedSimplex inner_;
};

Model multiKnapsack(util::Rng& rng, int n, int rows) {
  Model m;
  std::vector<VarId> xs;
  LinExpr value;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.addBinary());
    value += static_cast<double>(rng.intIn(5, 40)) * LinExpr(xs.back());
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr weight;
    double total = 0.0;
    for (const VarId x : xs) {
      const double w = static_cast<double>(rng.intIn(3, 25));
      weight += w * LinExpr(x);
      total += w;
    }
    m.addLessEqual(weight, std::floor(0.45 * total));
  }
  m.setObjective(-1.0 * value);
  return m;
}

TEST(CutsSolve, RootLoopLpWorkIsCounted) {
  // The cut loop's cold solve and warm re-solves, including the
  // refactorization each addCutRows() performs, land in CutStats and the
  // ilp.cuts.* counters, not in the node-LP ilp.simplex.* ones.
  util::Rng rng(21);
  SolveParams params;
  int looped = 0;
  for (int trial = 0; trial < 4; ++trial) {
    Model model = multiKnapsack(rng, 14, 3);
    g_cut_loop_log = {};
    const LpBackendFactory previous = substituteLpBackendForTesting(
        [](const Model& m,
           const SolveParams& p) -> std::unique_ptr<LpBackend> {
          return std::make_unique<LoggingBackend>(m, p);
        });
    const CutStats stats = separateRootCuts(model, params, {}, nullptr);
    substituteLpBackendForTesting(previous);
    if (stats.added == 0) continue;
    ++looped;
    EXPECT_GE(g_cut_loop_log.add_cut_calls, 1);
    EXPECT_GT(stats.simplex_iterations, 0);
    EXPECT_EQ(stats.simplex_iterations, g_cut_loop_log.iterations);
    EXPECT_EQ(stats.refactorizations, g_cut_loop_log.factorizations);
    // One for the cold solve, one per round that added cut rows.
    EXPECT_GE(stats.refactorizations, 1 + g_cut_loop_log.add_cut_calls);
  }
  EXPECT_GE(looped, 2);

  // Through solve(): the registry's ilp.cuts.* counters carry the loop's
  // work, and ilp.simplex.* stays the node LPs' own.
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& cut_iters = reg.counter(obs::names::kCutsSimplexIterations);
  obs::Counter& cut_refactors = reg.counter(obs::names::kCutsRefactorizations);
  obs::Counter& node_refactors =
      reg.counter(obs::names::kSimplexRefactorizations);
  const Model model = multiKnapsack(rng, 14, 3);
  const std::int64_t iters_before = cut_iters.value();
  const std::int64_t refactors_before = cut_refactors.value();
  const std::int64_t node_before = node_refactors.value();
  const Solution s = solve(model, params);
  ASSERT_TRUE(s.hasSolution());
  EXPECT_GT(s.stats.cuts.simplex_iterations, 0);
  EXPECT_GE(s.stats.cuts.refactorizations, 1);
  EXPECT_EQ(cut_iters.value() - iters_before, s.stats.cuts.simplex_iterations);
  EXPECT_EQ(cut_refactors.value() - refactors_before,
            s.stats.cuts.refactorizations);
  EXPECT_EQ(node_refactors.value() - node_before, s.stats.refactorizations);
}

TEST(Probing, FixesBinaryWhoseBranchPropagatesInfeasible) {
  // x=1 forces y=1 (y >= x) and z=1 (z >= x), but y + z <= 1 — so probing
  // must fix x=0 permanently. Plain activity propagation cannot see this:
  // no single row tightens any bound on its own.
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  const VarId z = m.addBinary("z");
  m.addGreaterEqual(LinExpr(y) - LinExpr(x), 0.0);
  m.addGreaterEqual(LinExpr(z) - LinExpr(x), 0.0);
  m.addLessEqual(LinExpr(y) + LinExpr(z), 1.0);
  m.setObjective(-1.0 * LinExpr(x) - 1.0 * LinExpr(y));

  Model probed = m;
  const PresolveResult r = presolve(probed);
  EXPECT_FALSE(r.infeasible);
  EXPECT_GE(r.probed_fixings, 1);
  EXPECT_DOUBLE_EQ(probed.var(x).upper, 0.0) << "x must be fixed to 0";

  // The reduced model solves to the same optimum as the original.
  const Solution full = solve(m, SolveParams{});
  ASSERT_EQ(full.status, SolveStatus::Optimal);
  EXPECT_NEAR(full.objective, -1.0, 1e-6);  // x=0, y=1 (or z): obj -1
  EXPECT_NEAR(full.values[static_cast<std::size_t>(x)], 0.0, 1e-6);
}

TEST(Probing, DetectsInfeasibleModel) {
  // Both probe directions of x die: x=1 violates the pair row as above,
  // x=0 violates x >= 1 - 0*... via the row x + y >= 2 with y <= 1 - x
  // style chain. Simplest: x=1 infeasible by the chain, x=0 infeasible by
  // a direct row x >= 1 (which propagation applies before probing).
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  const VarId z = m.addBinary("z");
  m.addGreaterEqual(LinExpr(y) - LinExpr(x), 0.0);
  m.addGreaterEqual(LinExpr(z) - LinExpr(x), 0.0);
  m.addLessEqual(LinExpr(y) + LinExpr(z), 1.0);
  m.addGreaterEqual(LinExpr(x), 1.0);  // forces x = 1: contradiction

  Model probed = m;
  const PresolveResult r = presolve(probed);
  EXPECT_TRUE(r.infeasible);

  const Solution s = solve(m, SolveParams{});
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(Probing, JoinedBoundsTightenAcrossBranches) {
  // Both branches of x force w >= 2: x=0 -> w >= 2 (row w + 5x >= 2),
  // x=1 -> w >= 3 (row w - 3x >= 0 gives w >= 3... actually w >= 3 only
  // when x=1; when x=0 it gives w >= 0). Joined lower bound:
  // min(2, 3) = 2 > 0, which activity propagation alone cannot prove.
  Model m;
  const VarId x = m.addBinary("x");
  const VarId w = m.addContinuous(0.0, 10.0, "w");
  m.addGreaterEqual(LinExpr(w) + 5.0 * LinExpr(x), 2.0);
  m.addGreaterEqual(LinExpr(w) - 3.0 * LinExpr(x), 0.0);

  Model probed = m;
  const PresolveResult r = presolve(probed);
  EXPECT_FALSE(r.infeasible);
  EXPECT_GE(probed.var(w).lower, 2.0 - 1e-9);
  EXPECT_GE(r.probed_bounds, 1);
}

TEST(CoefStrengthening, ShrinksPositiveBigM) {
  // 10x + y <= 12 with y in [0, 5]: when x = 0 the row is slack by
  // 12 - 5 = 7, so the x coefficient shrinks by 7 to 3 and the rhs to 5.
  // Both 0/1 faces are preserved (x=0: y <= 5; x=1: y <= 2).
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addContinuous(0.0, 5.0, "y");
  const ConstraintId row =
      m.addLessEqual(10.0 * LinExpr(x) + LinExpr(y), 12.0);
  m.setObjective(-1.0 * LinExpr(y) - 0.1 * LinExpr(x));

  Model tight = m;
  const PresolveResult r = presolve(tight);
  EXPECT_FALSE(r.infeasible);
  EXPECT_GE(r.coefficients_tightened, 1);
  EXPECT_NEAR(tight.constraint(row).expr.coefficient(x), 3.0, 1e-9);
  EXPECT_NEAR(tight.constraint(row).rhs, 5.0, 1e-9);

  const Solution a = solve(m, SolveParams{});
  const Solution b = solve(tight, SolveParams{});
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
}

TEST(CoefStrengthening, ShrinksNegativeBigMIndicator) {
  // y <= 100x (y - 100x <= 0) with y in [0, 5]: the classic indicator
  // big-M. The x coefficient must tighten from -100 to -5.
  Model m;
  const VarId y = m.addContinuous(0.0, 5.0, "y");
  const VarId x = m.addBinary("x");
  const ConstraintId row =
      m.addLessEqual(LinExpr(y) - 100.0 * LinExpr(x), 0.0);
  m.setObjective(-1.0 * LinExpr(y) + 0.5 * LinExpr(x));

  Model tight = m;
  const PresolveResult r = presolve(tight);
  EXPECT_FALSE(r.infeasible);
  EXPECT_GE(r.coefficients_tightened, 1);
  EXPECT_NEAR(tight.constraint(row).expr.coefficient(x), -5.0, 1e-9);

  const Solution a = solve(m, SolveParams{});
  const Solution b = solve(tight, SolveParams{});
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  EXPECT_NEAR(a.objective, -4.5, 1e-6);  // x=1, y=5
}

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
