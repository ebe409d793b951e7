// Lazy rows (ilp/branch_bound.h). A callback enforces a hidden set of <=
// rows on tiny pure 0-1 models: the search must return the optimum of the
// model plus those rows (brute-force enumeration, reference_lp.h), a point
// that satisfies every hidden row, and stats that count exactly the rows
// the callback returned. Hand-built cases pin a rejected root point, a
// rejected warm start and a node cap that stops the search right after a
// rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ilp/branch_bound.h"
#include "ilp/lp_backend.h"
#include "ilp/revised_simplex.h"
#include "ilp/solver.h"
#include "reference_lp.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

using Row = LpBackend::CutRow;

double lhs(const Row& row, const std::vector<double>& point) {
  double sum = 0.0;
  for (const auto& [var, coeff] : row.terms)
    sum += coeff * point[static_cast<std::size_t>(var)];
  return sum;
}

/// A callback that returns the rows of `hidden` that `point` violates and
/// records every point it was shown and how many rows it returned.
struct Enforcer {
  std::vector<Row> hidden;
  std::vector<std::vector<double>> seen;
  std::int64_t returned = 0;

  LazyRows callback() {
    return [this](const std::vector<double>& point) {
      seen.push_back(point);
      std::vector<Row> violated;
      for (const Row& row : hidden)
        if (lhs(row, point) > row.rhs + 1e-9) violated.push_back(row);
      returned += static_cast<std::int64_t>(violated.size());
      return violated;
    };
  }
};

Row lessEqual(std::vector<std::pair<VarId, double>> terms, double rhs) {
  Row row;
  row.terms = std::move(terms);
  row.rhs = rhs;
  return row;
}

Model withRows(Model model, const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    LinExpr expr;
    for (const auto& [var, coeff] : row.terms) expr.add(var, coeff);
    model.addLessEqual(expr, row.rhs);
  }
  return model;
}

/// Random pure 0-1 model: an objective that rewards most variables, one to
/// three visible knapsack rows, and one to four hidden rows (cliques
/// sum_S x <= |S| - 1 or knapsacks) for the callback to enforce.
struct Instance {
  Model model;
  std::vector<Row> hidden;
};

Instance makeInstance(util::Rng& rng, int n) {
  Instance inst;
  Model& m = inst.model;
  LinExpr objective;
  for (int j = 0; j < n; ++j) {
    const VarId x = m.addBinary();
    objective += static_cast<double>(rng.intIn(-9, 3)) * LinExpr(x);
  }
  m.setObjective(objective);
  const int visible = rng.intIn(1, 3);
  for (int i = 0; i < visible; ++i) {
    LinExpr row;
    for (VarId v = 0; v < n; ++v)
      if (rng.chance(0.6))
        row += static_cast<double>(rng.intIn(1, 5)) * LinExpr(v);
    m.addLessEqual(row, static_cast<double>(rng.intIn(n / 2, 2 * n)));
  }
  const int hidden = rng.intIn(1, 4);
  for (int i = 0; i < hidden; ++i) {
    std::vector<VarId> vars(static_cast<std::size_t>(n));
    for (VarId v = 0; v < n; ++v) vars[static_cast<std::size_t>(v)] = v;
    rng.shuffle(vars);
    vars.resize(static_cast<std::size_t>(rng.intIn(2, std::min(n, 5))));
    std::sort(vars.begin(), vars.end());
    std::vector<std::pair<VarId, double>> terms;
    const bool clique = rng.chance(0.5);
    double weight = 0.0;
    for (const VarId v : vars) {
      const double c = clique ? 1.0 : static_cast<double>(rng.intIn(1, 4));
      terms.emplace_back(v, c);
      weight += c;
    }
    const double rhs = clique ? weight - 1.0
                              : static_cast<double>(rng.intIn(
                                    1, static_cast<int>(weight) - 1));
    inst.hidden.push_back(lessEqual(std::move(terms), rhs));
  }
  return inst;
}

TEST(LazyRows, RandomModelsMatchEnumerationOfModelPlusHiddenRows) {
  util::Rng rng(0x1a2b3c4d);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Instance inst = makeInstance(rng, rng.intIn(3, 9));
    Enforcer enforcer{inst.hidden, {}, 0};
    const Solution s =
        solve(inst.model, SolveParams{}, enforcer.callback());
    const std::optional<double> optimum =
        reference::enumerateIntegerOptimum(withRows(inst.model, inst.hidden));
    EXPECT_EQ(s.stats.lazy_rows, enforcer.returned) << "trial " << trial;
    if (enforcer.returned > 0) ++rejected;
    if (!optimum) {
      EXPECT_EQ(s.status, SolveStatus::Infeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(s.objective, *optimum, 1e-6) << "trial " << trial;
    EXPECT_TRUE(inst.model.isFeasible(s.values, 1e-6)) << "trial " << trial;
    for (const Row& row : inst.hidden)
      EXPECT_LE(lhs(row, s.values), row.rhs + 1e-6) << "trial " << trial;
  }
  // The hidden rows must have bitten often enough to mean something.
  EXPECT_GT(rejected, 100);
}

TEST(LazyRows, RejectedRootPointIsResolvedWarm) {
  // min -x - y has the integral root point (1, 1); the hidden row
  // x + y <= 1 rejects it, and the root's warm re-solve finds an optimum.
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  m.setObjective(-1.0 * LinExpr(x) - 1.0 * LinExpr(y));
  Enforcer enforcer{{lessEqual({{x, 1.0}, {y, 1.0}}, 1.0)}, {}, 0};
  const Solution s = solveMip(m, SolveParams{}, enforcer.callback());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
  ASSERT_FALSE(enforcer.seen.empty());
  EXPECT_EQ(enforcer.seen.front(), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(s.stats.lazy_rows, 1);
  // The root twice: once cold, once warm with the row in place.
  EXPECT_EQ(s.stats.nodes_explored, 2);
  EXPECT_EQ(s.stats.warm_hits, 1);
  EXPECT_EQ(s.stats.warm_misses, 0);
}

TEST(LazyRows, RejectedWarmStartNeverComesBack) {
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  const VarId z = m.addBinary("z");
  m.setObjective(-1.0 * LinExpr(x) - 2.0 * LinExpr(y) - 3.0 * LinExpr(z));
  const Row hidden = lessEqual({{x, 1.0}, {y, 1.0}, {z, 1.0}}, 2.0);
  SolveParams params;
  params.warm_start = {1.0, 1.0, 1.0};

  {
    // The warm start is the first point shown; rejected, it seeds nothing,
    // and the search still reaches the optimum of the model plus the row.
    Enforcer enforcer{{hidden}, {}, 0};
    const Solution s = solveMip(m, params, enforcer.callback());
    ASSERT_FALSE(enforcer.seen.empty());
    EXPECT_EQ(enforcer.seen.front(), params.warm_start);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -5.0, 1e-9);
    EXPECT_LE(lhs(hidden, s.values), 2.0 + 1e-9);
    EXPECT_EQ(s.stats.lazy_rows, enforcer.returned);
  }
  {
    // With no node to search, a rejected warm start leaves no solution.
    SolveParams no_nodes = params;
    no_nodes.node_limit = 0;
    Enforcer enforcer{{hidden}, {}, 0};
    const Solution s = solveMip(m, no_nodes, enforcer.callback());
    EXPECT_EQ(s.status, SolveStatus::NodeLimit);
    EXPECT_FALSE(s.hasSolution());
    EXPECT_EQ(s.stats.lazy_rows, 1);
  }
}

TEST(LazyRows, NodeCapRightAfterRejectionKeepsTheStatusHonest) {
  // The root point (1, 1, 1) is rejected and the cap stops the search
  // before the root's re-solve: the node stays open.
  Model m;
  const VarId x = m.addBinary("x");
  const VarId y = m.addBinary("y");
  const VarId z = m.addBinary("z");
  m.setObjective(-1.0 * LinExpr(x) - 2.0 * LinExpr(y) - 3.0 * LinExpr(z));
  const Row hidden = lessEqual({{x, 1.0}, {y, 1.0}, {z, 1.0}}, 2.0);
  SolveParams params;
  params.node_limit = 1;

  {
    // No incumbent: the cap, not infeasibility, is reported.
    Enforcer enforcer{{hidden}, {}, 0};
    const Solution s = solveMip(m, params, enforcer.callback());
    EXPECT_EQ(s.stats.nodes_explored, 1);
    EXPECT_EQ(s.stats.lazy_rows, 1);
    EXPECT_EQ(s.status, SolveStatus::NodeLimit);
    EXPECT_FALSE(s.hasSolution());
  }
  {
    // An accepted warm start (objective -3) is returned as Feasible, not
    // Optimal: the open root still bounds below it.
    SolveParams warm = params;
    warm.warm_start = {1.0, 1.0, 0.0};
    Enforcer enforcer{{hidden}, {}, 0};
    const Solution s = solveMip(m, warm, enforcer.callback());
    EXPECT_EQ(s.status, SolveStatus::Feasible);
    EXPECT_EQ(s.values, warm.warm_start);
    EXPECT_LT(s.stats.best_bound, s.objective);
  }
  {
    // One node more and the re-solve proves the optimum.
    SolveParams two = params;
    two.node_limit = 2;
    Enforcer enforcer{{hidden}, {}, 0};
    const Solution s = solveMip(m, two, enforcer.callback());
    EXPECT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, -5.0, 1e-9);
  }
}

/// The production engine, checking on every solve that the model it
/// references holds exactly the rows the engine was built with plus those
/// appended since: lazy rows must reach both.
class InStepBackend final : public LpBackend {
 public:
  InStepBackend(const Model& model, const SolveParams& params)
      : model_(model), rows_(model.numConstraints()), inner_(model, params) {}
  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper, bool allow_warm,
                 bool* used_warm = nullptr,
                 std::int64_t* dual_pivots = nullptr) override {
    EXPECT_EQ(model_.numConstraints(), rows_);
    return inner_.solve(lower, upper, allow_warm, used_warm, dual_pivots);
  }
  void collectReducedCostFixes(double gap,
                               std::vector<Fix>* out) const override {
    inner_.collectReducedCostFixes(gap, out);
  }
  void addCutRows(const std::vector<CutRow>& rows) override {
    rows_ += static_cast<int>(rows.size());
    inner_.addCutRows(rows);
  }
  void setFlightRecorder(obs::FlightRecorder* recorder) override {
    inner_.setFlightRecorder(recorder);
  }

 private:
  const Model& model_;
  int rows_;
  RevisedSimplex inner_;
};

TEST(LazyRows, RowsReachTheModelAndTheEngineInStep) {
  const LpBackendFactory previous = substituteLpBackendForTesting(
      [](const Model& model,
         const SolveParams& p) -> std::unique_ptr<LpBackend> {
        return std::make_unique<InStepBackend>(model, p);
      });
  util::Rng rng(0x5eed);
  std::int64_t lazy_rows = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Instance inst = makeInstance(rng, rng.intIn(4, 9));
    Enforcer enforcer{inst.hidden, {}, 0};
    lazy_rows += solve(inst.model, SolveParams{}, enforcer.callback())
                     .stats.lazy_rows;
  }
  substituteLpBackendForTesting(previous);
  EXPECT_GT(lazy_rows, 0);
}

TEST(LazyRows, StatsSumLazyRows) {
  SolveStats a, b;
  a.lazy_rows = 3;
  b.lazy_rows = 4;
  a += b;
  EXPECT_EQ(a.lazy_rows, 7);
}

}  // namespace
}  // namespace pdw::ilp
