// The order search after phase A (core/order_search.h, DESIGN.md §7).
//
// Suites:
//   OrderSearch   exactness of the longest-path score: random fixed orders
//                 (feasible and infeasible) on the schedule models of all
//                 eight benchmarks agree with an LP solve of the pinned
//                 model on feasibility and T_assay, the earliest starts are
//                 a feasible point, and the relaxed longest path bounds
//                 every feasible order from below; only critical order
//                 binaries can shorten T_assay alone; the search never
//                 worsens phase A, keeps to its trial budget, and gives
//                 byte-identical plans at 1 and 4 threads
//   OrderSearchGraph  a three-start model: a start past its upper bound
//                 and a positive cycle each mark an order infeasible, as
//                 the LP does; critical rows and the relaxed bound
//   OrderSearchBudget  a 3-trial budget stops the search at 3 trials and
//                 reports budget_hit
//
// Budgets are node-bound (never wall-clock), so every run is deterministic
// under sanitizers and load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "assay/benchmarks.h"
#include "core/order_search.h"
#include "core/pipeline.h"
#include "core/schedule_ilp.h"
#include "core/wash_path_ilp.h"
#include "ilp/solver.h"
#include "obs/metric_names.h"
#include "service/protocol.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "wash/contamination.h"
#include "wash/necessity.h"

namespace pdw::core {
namespace {

using assay::BenchmarkId;

/// One benchmark's base schedule and its wash operations, clustered as the
/// pipeline clusters them and routed by the BFS heuristic.
struct Instance {
  assay::Benchmark benchmark;
  synth::SynthResult synth;
  std::vector<wash::WashOperation> washes;
};

Instance makeInstance(BenchmarkId id) {
  Instance out;
  out.benchmark = assay::makeBenchmark(id);
  out.synth = synth::synthesizeOnChip(
      *out.benchmark.graph, synth::placeChip(out.benchmark.library));
  const PdwOptions options;
  const wash::ContaminationTracker tracker(out.synth.schedule);
  wash::NecessityResult necessity =
      wash::analyzeWashNecessity(tracker, options.necessity);
  out.washes = wash::clusterTargets(std::move(necessity.targets),
                                    options.cluster);
  for (wash::WashOperation& w : out.washes) {
    const auto path =
        routeWashPathHeuristic(out.synth.schedule.chip(), w.targetCells());
    if (path) w.path = *path;
  }
  std::erase_if(out.washes,
                [](const wash::WashOperation& w) { return w.path.empty(); });
  return out;
}

/// Solves under a node cap only.
ilp::SolveParams nodeBudget(std::int64_t nodes) {
  ilp::SolveParams params;
  params.time_limit_seconds = 1e6;
  params.node_limit = nodes;
  return params;
}

class OrderSearch : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(OrderSearch, LongestPathEqualsPinnedLpOnRandomOrders) {
  const Instance inst = makeInstance(GetParam());
  const ScheduleModel sm =
      buildScheduleModel(inst.synth.schedule, inst.washes);
  const ilp::Model& model = sm.model;
  const DifferenceConstraints graph(model);
  ASSERT_TRUE(graph.supported());
  ASSERT_FALSE(sm.order_binaries.empty());
  const std::size_t t = static_cast<std::size_t>(sm.t_assay);
  const double bound = graph.relaxedEarliest()[t];

  std::vector<ilp::VarId> integers;
  for (ilp::VarId v = 0; v < model.numVars(); ++v)
    if (model.var(v).type != ilp::VarType::Continuous) integers.push_back(v);

  // Half the flips come from the order binaries on the greedy order's
  // critical path, which a single flip leaves feasible more often.
  std::vector<double> greedy = sm.warm_start;
  ASSERT_TRUE(graph.earliest(greedy));
  std::vector<ilp::VarId> critical;
  for (const ilp::VarId v : graph.criticalIntegers(greedy, sm.t_assay))
    if (std::binary_search(sm.order_binaries.begin(), sm.order_binaries.end(),
                           v))
      critical.push_back(v);
  ASSERT_FALSE(critical.empty());

  std::mt19937 rng(20261019u + static_cast<std::uint32_t>(GetParam()));
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 32; ++trial) {
    // Flip 1 to 4 order binaries of the greedy order; in every third trial
    // also set each psi binary with probability 0.2 (the greedy start sets
    // none).
    const std::vector<ilp::VarId>& pool =
        trial % 2 == 0 ? critical : sm.order_binaries;
    std::vector<double> point = sm.warm_start;
    for (int k = 0; k <= trial / 8; ++k) {
      const ilp::VarId v = pool[rng() % pool.size()];
      point[static_cast<std::size_t>(v)] =
          1.0 - point[static_cast<std::size_t>(v)];
    }
    if (trial % 3 == 2)
      for (const ilp::VarId v : integers)
        if (!std::binary_search(sm.order_binaries.begin(),
                                sm.order_binaries.end(), v))
          point[static_cast<std::size_t>(v)] = rng() % 5 == 0 ? 1.0 : 0.0;
    ilp::Model pinned = model;
    for (const ilp::VarId v : integers) {
      const double y = point[static_cast<std::size_t>(v)];
      pinned.setBounds(v, y, y);
    }
    const ilp::Solution lp = ilp::solve(pinned, nodeBudget(10));
    ASSERT_TRUE(lp.status == ilp::SolveStatus::Optimal ||
                lp.status == ilp::SolveStatus::Infeasible)
        << ilp::toString(lp.status);

    const bool scored = graph.earliest(point);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(scored, lp.hasSolution());
    if (!scored) {
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_NEAR(point[t], lp.value(sm.t_assay), 1e-6);
    EXPECT_TRUE(pinned.isFeasible(point, 1e-6))
        << pinned.firstViolation(point, 1e-6);
    EXPECT_LE(bound, point[t] + 1e-9);
  }
  RecordProperty("feasible", feasible);
  RecordProperty("infeasible", infeasible);
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST_P(OrderSearch, OnlyCriticalFlipsShortenTAssay) {
  const Instance inst = makeInstance(GetParam());
  const ScheduleModel sm =
      buildScheduleModel(inst.synth.schedule, inst.washes);
  const DifferenceConstraints graph(sm.model);
  std::vector<double> incumbent = sm.warm_start;
  ASSERT_TRUE(graph.earliest(incumbent));
  const std::size_t t = static_cast<std::size_t>(sm.t_assay);
  const std::vector<ilp::VarId> critical =
      graph.criticalIntegers(incumbent, sm.t_assay);

  int shortening = 0;
  for (const ilp::VarId v : sm.order_binaries) {
    std::vector<double> trial = incumbent;
    trial[static_cast<std::size_t>(v)] =
        1.0 - trial[static_cast<std::size_t>(v)];
    if (!graph.earliest(trial) || trial[t] >= incumbent[t] - 1e-6) continue;
    ++shortening;
    EXPECT_TRUE(std::binary_search(critical.begin(), critical.end(), v))
        << "order binary " << v << " shortens T_assay from "
        << incumbent[t] << " to " << trial[t] << " but is not critical";
  }
  RecordProperty("shortening_flips", shortening);
}

TEST_P(OrderSearch, SearchNeverWorsensPhaseAAndKeepsItsBudget) {
  const Instance inst = makeInstance(GetParam());
  ScheduleIlpOptions options;
  options.solver = nodeBudget(200);
  const ScheduleIlpResult cold =
      solveWashSchedule(inst.synth.schedule, inst.washes, options);
  options.repair_mode = true;
  const ScheduleIlpResult phase_a =
      solveWashSchedule(inst.synth.schedule, inst.washes, options);
  ASSERT_TRUE(cold.success);
  ASSERT_TRUE(phase_a.success);

  EXPECT_LE(cold.objective, phase_a.objective + 1e-9);
  EXPECT_LE(cold.schedule.completionTime(),
            phase_a.schedule.completionTime() + 1e-6);
  EXPECT_EQ(phase_a.order_stop, OrderSearchStop::NotRun);
  EXPECT_EQ(phase_a.order_trials, 0);
  EXPECT_NE(cold.order_stop, OrderSearchStop::NotRun);
  EXPECT_LE(cold.order_trials, 200);
  EXPECT_EQ(cold.order_stop == OrderSearchStop::TrialBudget,
            cold.order_trials == 200);
  if (cold.order_flips == 0) {
    EXPECT_EQ(cold.objective, phase_a.objective);
  }
  if (cold.order_stop != OrderSearchStop::LocalOptimum) {
    EXPECT_TRUE(cold.budget_hit);
  }
}

TEST_P(OrderSearch, PlanIdenticalAt1And4Threads) {
  const assay::Benchmark b = assay::makeBenchmark(GetParam());
  const synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  PdwResult results[2];
  for (int i = 0; i < 2; ++i) {
    PdwOptions options = PdwOptions{}
                             .withThreads(i == 0 ? 1 : 4)
                             .withoutIlpPaths()
                             .withScheduleBudget(1e6, 200);
    results[i] = Pipeline(std::move(options)).run(base.schedule);
  }
  EXPECT_EQ(service::canonicalPlan(results[0].schedule()),
            service::canonicalPlan(results[1].schedule()));
  for (const char* name : {obs::names::kScheduleIlpOrderTrials,
                           obs::names::kScheduleIlpOrderFlips})
    EXPECT_EQ(results[0].metrics.counter(name),
              results[1].metrics.counter(name))
        << name;
  EXPECT_GT(results[0].metrics.counter(obs::names::kScheduleIlpOrderTrials),
            0);
}

TEST(OrderSearchGraph, BoundsAndCyclesMarkInfeasibleOrders) {
  // Starts x, y, z in [lo_x, 10] and one order binary b:
  //   y >= x + 4;  b = 0: z >= y + 5;  b = 1: x >= z + 1 and x >= y + 1.
  // b = 0 is feasible with x = 0 (z = 9) and past the horizon with x >= 2
  // (z = 11 > 10, no cycle); b = 1 closes the positive cycle x -> y -> x.
  for (const double lo_x : {0.0, 2.0}) {
    ilp::Model m;
    const ilp::VarId x = m.addContinuous(lo_x, 10.0, "x");
    const ilp::VarId y = m.addContinuous(0.0, 10.0, "y");
    const ilp::VarId z = m.addContinuous(0.0, 10.0, "z");
    const ilp::VarId b = m.addBinary("b");
    m.addGreaterEqual(ilp::LinExpr(y) - ilp::LinExpr(x), 4.0);
    m.addGreaterEqual(
        ilp::LinExpr(z) - ilp::LinExpr(y) + 20.0 * ilp::LinExpr(b), 5.0);
    m.addGreaterEqual(
        ilp::LinExpr(x) - ilp::LinExpr(z) + 20.0 * (1.0 - ilp::LinExpr(b)),
        1.0);
    m.addGreaterEqual(
        ilp::LinExpr(x) - ilp::LinExpr(y) + 20.0 * (1.0 - ilp::LinExpr(b)),
        1.0);
    m.setObjective(ilp::LinExpr(z));
    const DifferenceConstraints graph(m);
    ASSERT_TRUE(graph.supported());

    for (const double order : {0.0, 1.0}) {
      SCOPED_TRACE("lo_x " + std::to_string(lo_x) + " b " +
                   std::to_string(order));
      std::vector<double> point(4, 0.0);
      point[static_cast<std::size_t>(b)] = order;
      const bool scored = graph.earliest(point);
      ilp::Model pinned = m;
      pinned.setBounds(b, order, order);
      const ilp::Solution lp = ilp::solve(pinned, nodeBudget(10));
      ASSERT_EQ(scored, lp.hasSolution());
      EXPECT_EQ(scored, order == 0.0 && lo_x == 0.0);
      if (!scored) continue;
      EXPECT_EQ(point[static_cast<std::size_t>(z)], 9.0);
      EXPECT_NEAR(lp.value(z), 9.0, 1e-9);
      // The row z >= y + 5 is tight on the path to z, and b is in it.
      EXPECT_EQ(graph.criticalIntegers(point, z), std::vector<ilp::VarId>{b});
    }
    // Every row at its weakest: only y >= x + 4 is left.
    const std::vector<double> bound = graph.relaxedEarliest();
    EXPECT_EQ(bound[static_cast<std::size_t>(y)], lo_x + 4.0);
    EXPECT_EQ(bound[static_cast<std::size_t>(z)], 0.0);
  }
}

TEST(OrderSearchBudget, TrialBudgetStopsTheSearch) {
  const Instance inst = makeInstance(BenchmarkId::Pcr);
  ScheduleIlpOptions options;
  options.solver = nodeBudget(3);
  const ScheduleIlpResult r =
      solveWashSchedule(inst.synth.schedule, inst.washes, options);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.order_trials, 3);
  EXPECT_EQ(r.order_stop, OrderSearchStop::TrialBudget);
  EXPECT_TRUE(r.budget_hit);
  EXPECT_FALSE(r.proven_optimal);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, OrderSearch, ::testing::ValuesIn(assay::allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace pdw::core
