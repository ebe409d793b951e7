// Differential suite for the LP engine. The production engine (sparse
// revised simplex, warm dual re-solves) is checked against independent
// answers: the test-only dense reference LP (reference_lp.h) on random LPs
// and on a sample of the node LPs of real Table-II pipeline runs, and
// brute-force integer enumeration on random MIPs (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "ilp/lp_backend.h"
#include "ilp/revised_simplex.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "reference_lp.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random bounded LP. Variables are mostly boxed [lo, hi] with lo
/// occasionally negative; a few are fully free (the reference splits them,
/// the revised engine handles them natively).
Model makeRandomLp(util::Rng& rng, int n, int rows) {
  Model m;
  std::vector<VarId> xs;
  LinExpr objective;
  for (int j = 0; j < n; ++j) {
    if (rng.chance(0.15)) {
      xs.push_back(m.addContinuous(-kInf, kInf));
    } else {
      const double lo = rng.chance(0.3)
                            ? -static_cast<double>(rng.intIn(1, 4))
                            : 0.0;
      xs.push_back(m.addContinuous(lo, lo + rng.intIn(3, 12)));
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
    const double rhs = static_cast<double>(rng.intIn(-5, 6 * n));
    switch (rng.intIn(0, 2)) {
      case 0: m.addLessEqual(e, rhs); break;
      case 1: m.addGreaterEqual(e, -rhs); break;
      default: m.addEqual(e, static_cast<double>(rng.intIn(0, n))); break;
    }
  }
  m.setObjective(objective);
  return m;
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

TEST(BackendDifferential, RandomLpsAgreeOnStatusAndObjective) {
  // ~100 random bounded LPs (feasible, infeasible and unbounded draws all
  // occur): the revised engine must report the reference's status, and the
  // same objective within 1e-6 when Optimal.
  util::Rng rng(20260809);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int inst = 0; inst < 100; ++inst) {
    const Model m = makeRandomLp(rng, 3 + inst % 10, 2 + inst % 8);
    const reference::LpOutcome ref = reference::referenceLp(m);
    const LpResult revised = solveLp(m, SolveParams{});
    ASSERT_EQ(ref.status, revised.status) << "instance " << inst;
    switch (ref.status) {
      case LpStatus::Optimal:
        ++optimal;
        EXPECT_NEAR(ref.objective, revised.objective, 1e-6)
            << "instance " << inst;
        break;
      case LpStatus::Infeasible: ++infeasible; break;
      case LpStatus::Unbounded: ++unbounded; break;
      default: break;
    }
  }
  // The generator must actually exercise the interesting regimes.
  EXPECT_GT(optimal, 40);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(unbounded, 0);
}

TEST(BackendDifferential, RandomMipsAgreeOnObjective) {
  // Full branch-and-bound — warm node LPs, reduced-cost fixing — against
  // brute-force enumeration of every integer point of the box.
  util::Rng rng(31);
  for (int inst = 0; inst < 20; ++inst) {
    const Model m = makeBranchyMip(rng, 6 + inst % 5);
    const Solution s = solve(m, SolveParams{});
    const std::optional<double> optimum =
        reference::enumerateIntegerOptimum(m);
    ASSERT_TRUE(optimum.has_value()) << "instance " << inst;
    ASSERT_EQ(s.status, SolveStatus::Optimal) << "instance " << inst;
    EXPECT_NEAR(s.objective, *optimum, 1e-6) << "instance " << inst;
  }
}

// ---- Table-II node-LP differential ---------------------------------------
//
// A wrapper substituted for the production engine through the test-only
// hook: it forwards every call — warm and cold node LPs and lazy rows — to
// a real RevisedSimplex, so the search and the plan are exactly the
// production ones. Every LP it serves is also solved cold by the reference
// on the identical bound vector and row set (the model the engine was
// built over, which the lazy rows extend in step with addCutRows), and the
// two results are compared on the spot. Driving real PDW pipeline runs
// through it covers the bound patterns branching produces on Table-II
// models, not a hand-picked sample.
//
// The checks cannot pass vacuously: every backend makeLpBackend built must
// have served at least one LP the reference compared (or, for the pivot
// bound below, at least one LP), so a pipeline that stops issuing LPs
// through the wrapper fails instead of comparing nothing.

int g_node_lps = 0;
int g_compared = 0;
int g_mismatches = 0;
/// Backends built, and those destroyed without serving a checked LP.
int g_backends = 0;
int g_unchecked_backends = 0;

/// Forwards every call to a real RevisedSimplex and shows each LP result,
/// with the bounds it was solved under, to observe(), which returns whether
/// it checked that LP.
class ForwardingBackend : public LpBackend {
 public:
  ForwardingBackend(const Model& model, const SolveParams& params)
      : model_(model), revised_(model, params) {
    ++g_backends;
  }
  ~ForwardingBackend() override {
    if (checked_ == 0) ++g_unchecked_backends;
  }

  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper, bool allow_warm,
                 bool* used_warm = nullptr,
                 std::int64_t* dual_pivots = nullptr) override {
    LpResult r =
        revised_.solve(lower, upper, allow_warm, used_warm, dual_pivots);
    if (observe(r, lower, upper)) ++checked_;
    return r;
  }

  void collectReducedCostFixes(double gap,
                               std::vector<Fix>* out) const override {
    revised_.collectReducedCostFixes(gap, out);
  }

  void addCutRows(const std::vector<CutRow>& rows) override {
    revised_.addCutRows(rows);
  }

  void setFlightRecorder(obs::FlightRecorder* recorder) override {
    revised_.setFlightRecorder(recorder);
  }

 protected:
  virtual bool observe(const LpResult& r, const std::vector<double>& lower,
                       const std::vector<double>& upper) = 0;

  const Model& model_;

 private:
  RevisedSimplex revised_;
  int checked_ = 0;
};

class DifferentialBackend final : public ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

 private:
  bool observe(const LpResult& r, const std::vector<double>& lower,
               const std::vector<double>& upper) override {
    ++g_node_lps;
    const reference::LpOutcome ref =
        reference::referenceLp(model_, lower, upper);
    EXPECT_NE(ref.status, LpStatus::IterLimit) << "reference ran away";
    // The production engine may legitimately stop at its iteration cap;
    // statuses must agree whenever it did not.
    if (ref.status == LpStatus::IterLimit || r.status == LpStatus::IterLimit)
      return false;
    ++g_compared;
    EXPECT_EQ(ref.status, r.status);
    if (ref.status == LpStatus::Optimal && r.status == LpStatus::Optimal &&
        std::abs(ref.objective - r.objective) > 1e-6) {
      ++g_mismatches;
      ADD_FAILURE() << "node-LP objective mismatch: reference="
                    << ref.objective << " revised=" << r.objective;
    }
    return true;
  }
};

/// Routes makeLpBackend() to a `Backend` for the object's lifetime.
template <typename Backend>
class SubstituteBackend {
 public:
  SubstituteBackend()
      : previous_(substituteLpBackendForTesting(
            [](const Model& m,
               const SolveParams& p) -> std::unique_ptr<LpBackend> {
              return std::make_unique<Backend>(m, p);
            })) {}
  ~SubstituteBackend() { substituteLpBackendForTesting(previous_); }

 private:
  LpBackendFactory previous_;
};

class TableIIBackendDifferential
    : public ::testing::TestWithParam<assay::BenchmarkId> {};

TEST_P(TableIIBackendDifferential, NodeLpsAgreeAcrossBackends) {
  g_node_lps = g_compared = g_mismatches = 0;
  g_backends = g_unchecked_backends = 0;

  const assay::Benchmark b = assay::makeBenchmark(GetParam());
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));

  // The node/iteration-bound deterministic budgets of
  // test_parallel_determinism.cpp keep the run cheap and reproducible.
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(1)
                                 .withScheduleBudget(1e6, 200)
                                 .withPathBudget(1e6, 400);
  options.solver.schedule.simplex_iteration_limit = 4000;
  options.solver.path.simplex_iteration_limit = 10000;
  const SubstituteBackend<DifferentialBackend> substitute;
  const PdwResult result = Pipeline(std::move(options)).run(base.schedule);

  RecordProperty("node_lps", g_node_lps);
  RecordProperty("compared", g_compared);
  RecordProperty("backends", g_backends);
  EXPECT_GT(result.schedule().washCount(), 0);
  // Every engine the run built was the wrapper, and each one served an LP
  // the reference compared.
  EXPECT_GT(g_backends, 0) << "no LP engine was built through the wrapper";
  EXPECT_EQ(g_unchecked_backends, 0)
      << "of " << g_backends << " backends served no compared LP";
  EXPECT_EQ(g_mismatches, 0)
      << "of " << g_compared << " compared node-LP pairs";
}

INSTANTIATE_TEST_SUITE_P(
    SmallBenchmarks, TableIIBackendDifferential,
    ::testing::Values(assay::BenchmarkId::Pcr, assay::BenchmarkId::Ivd),
    [](const ::testing::TestParamInfo<assay::BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

// ---- runaway cold LP -----------------------------------------------------
//
// Kinase act-2's work-capped pipeline run (bench_ilp_solver's Table-II row)
// is where cold solves ran away while they began with a zero-cost dual
// Phase 1, whose ratios all tie at 0: one LP call took 1,372 pivots. Every
// LP call the run issues must stay under 1,000 pivots. Synthetic3's
// Table-II row, the other large scheduling model, runs under the same
// bound.

std::int64_t g_lp_calls = 0;
std::int64_t g_max_pivots = 0;

class PivotCountingBackend final : public ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

 private:
  bool observe(const LpResult& r, const std::vector<double>&,
               const std::vector<double>&) override {
    ++g_lp_calls;
    g_max_pivots = std::max(g_max_pivots, r.iterations);
    return true;
  }
};

TEST(RunawayLp, KinaseAct2EveryLpUnder1000Pivots) {
  g_lp_calls = g_max_pivots = 0;
  g_backends = g_unchecked_backends = 0;
  const SubstituteBackend<PivotCountingBackend> substitute;
  for (const assay::BenchmarkId id :
       {assay::BenchmarkId::KinaseAct2, assay::BenchmarkId::Synthetic3}) {
    const assay::Benchmark b = assay::makeBenchmark(id);
    synth::SynthResult base =
        synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
    // 200 schedule and 20 path nodes per MIP, under wall limits no run
    // reaches, so the run is the same on every machine.
    core::PdwOptions options = core::PdwOptions{}
                                   .withThreads(1)
                                   .withScheduleBudget(3600.0, 200)
                                   .withPathBudget(3600.0, 20);
    const PdwResult result = Pipeline(std::move(options)).run(base.schedule);
    EXPECT_GT(result.schedule().washCount(), 0) << assay::toString(id);
  }

  RecordProperty("lp_calls", static_cast<int>(g_lp_calls));
  RecordProperty("backends", g_backends);
  RecordProperty("max_pivots", static_cast<int>(g_max_pivots));
  // Every engine the runs built was the wrapper and served an LP.
  EXPECT_GT(g_backends, 0) << "no LP engine was built through the wrapper";
  EXPECT_EQ(g_unchecked_backends, 0)
      << "of " << g_backends << " backends served no LP";
  EXPECT_LT(g_max_pivots, 1000);
}

}  // namespace
}  // namespace pdw::ilp
