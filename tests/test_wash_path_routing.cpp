// Wash-path routing: the eq. 12-15 ILP (with lazy connectivity cuts) and
// the BFS heuristic, cross-checked against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pdw::core {
namespace {

using arch::Cell;

/// Open 9x7 chip, ports on opposite corners-ish, two devices.
class WashPathFixture : public ::testing::Test {
 protected:
  WashPathFixture() : chip_(9, 7, 3.0) {
    chip_.addFlowPort({0, 1}, "in1");
    chip_.addFlowPort({0, 5}, "in2");
    chip_.addWastePort({8, 1}, "out1");
    chip_.addWastePort({8, 5}, "out2");
    chip_.addDevice(arch::DeviceKind::Mixer, {4, 3}, "mixer");
  }
  arch::ChipLayout chip_;
};

void expectValidWashPath(const arch::ChipLayout& chip,
                         const arch::FlowPath& path,
                         const std::vector<Cell>& targets) {
  EXPECT_TRUE(path.isConnected());
  EXPECT_TRUE(chip.isPortCell(path.front()));
  EXPECT_TRUE(chip.isPortCell(path.back()));
  EXPECT_FALSE(chip.port(*chip.portAt(path.front())).is_waste)
      << "must start at a flow port";
  EXPECT_TRUE(chip.port(*chip.portAt(path.back())).is_waste)
      << "must end at a waste port";
  for (const Cell& t : targets) EXPECT_TRUE(path.contains(t));
}

TEST_F(WashPathFixture, IlpRoutesSingleTarget) {
  const std::vector<Cell> targets = {{3, 1}};
  WashPathStats stats;
  const auto path = routeWashPathIlp(chip_, targets, {}, &stats);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
  EXPECT_TRUE(path->isSimpleConnected());
  EXPECT_GE(stats.ilp_solves, 1);
}

TEST_F(WashPathFixture, IlpSingleTargetIsOptimalLength) {
  // Target adjacent to in1's corridor: the shortest flow->target->waste
  // path along row 1 has 9 cells (x=0..8).
  const std::vector<Cell> targets = {{4, 1}};
  const auto path = routeWashPathIlp(chip_, targets);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 9u);
}

TEST_F(WashPathFixture, IlpCoversMultipleTargets) {
  const std::vector<Cell> targets = {{2, 1}, {5, 1}, {5, 4}};
  const auto path = routeWashPathIlp(chip_, targets);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
}

TEST_F(WashPathFixture, IlpNeverLongerThanHeuristic) {
  const std::vector<Cell> target_sets[] = {
      {{2, 2}},
      {{2, 1}, {6, 1}},
      {{1, 3}, {4, 5}},
      {{3, 2}, {3, 4}, {6, 3}},
  };
  for (const auto& targets : target_sets) {
    const auto ilp = routeWashPathIlp(chip_, targets);
    const auto heuristic = routeWashPathHeuristic(chip_, targets);
    ASSERT_TRUE(ilp.has_value());
    ASSERT_TRUE(heuristic.has_value());
    // routeWashPathIlp keeps the better of the two, so <= always holds;
    // the interesting assertion is that it is never *worse*.
    EXPECT_LE(ilp->size(), heuristic->size());
  }
}

TEST_F(WashPathFixture, CutsAreLazyRowsOfOneSearch) {
  // Two targets straddling the mixer: the degree rows alone select cycles,
  // which the search's lazy rows cut off without a second solve.
  const std::vector<Cell> targets = {{4, 1}, {4, 5}};
  WashPathStats stats;
  const auto path = routeWashPathIlp(chip_, targets, {}, &stats);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
  EXPECT_GT(stats.connectivity_cuts, 0);
  EXPECT_EQ(stats.ilp_solves, 1);
  EXPECT_FALSE(stats.used_fallback);
}

TEST_F(WashPathFixture, EveryCycleComponentGetsItsOwnCut) {
  // A flow-to-waste walk along row 1 plus two disjoint 2x2 cycles.
  std::vector<Cell> selected;
  for (int x = 1; x <= 7; ++x) selected.push_back({x, 1});
  const std::vector<Cell> left = {{1, 4}, {2, 4}, {1, 5}, {2, 5}};
  const std::vector<Cell> right = {{6, 3}, {7, 3}, {6, 4}, {7, 4}};
  selected.insert(selected.end(), left.begin(), left.end());
  selected.insert(selected.end(), right.begin(), right.end());
  const auto sets = connectivityCutSets(chip_, selected, {1, 1}, {7, 1});
  ASSERT_EQ(sets.size(), 2u);
  const auto sorted = [](std::vector<Cell> cells) {
    std::sort(cells.begin(), cells.end());
    return cells;
  };
  EXPECT_EQ(sorted(sets[0]), sorted(left));
  EXPECT_EQ(sorted(sets[1]), sorted(right));

  // The walk alone is one path: nothing to cut.
  const std::vector<Cell> walk(selected.begin(), selected.begin() + 7);
  EXPECT_TRUE(connectivityCutSets(chip_, walk, {1, 1}, {7, 1}).empty());
  // A walk that stalls short of the waste end cuts the whole selection.
  const auto stalled = connectivityCutSets(chip_, walk, {1, 1}, {7, 5});
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].size(), walk.size());
}

TEST_F(WashPathFixture, OneCallSpendsAtMostTwoSearches) {
  // Each pass is one search under the node cap, so a call adds at most two
  // solves and 2N nodes, however many cuts it needs.
  constexpr std::int64_t kNodes = 5;
  WashPathOptions options;
  options.solver.node_limit = kNodes;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& nodes = reg.counter(obs::names::kBbNodes);
  obs::Counter& solves = reg.counter(obs::names::kPathIlpSolves);
  const std::vector<Cell> target_sets[] = {
      {{4, 1}, {4, 5}},
      {{3, 1}, {3, 5}, {5, 1}, {5, 5}},
      {{2, 1}, {2, 5}, {6, 1}, {6, 5}},
      {{4, 2}, {4, 4}},
  };
  for (const auto& targets : target_sets) {
    const std::int64_t nodes_before = nodes.value();
    const std::int64_t solves_before = solves.value();
    const auto path = routeWashPathIlp(chip_, targets, options);
    ASSERT_TRUE(path.has_value());
    expectValidWashPath(chip_, *path, targets);
    EXPECT_LE(nodes.value() - nodes_before, 2 * kNodes);
    EXPECT_LE(solves.value() - solves_before, 2);
  }
}

TEST_F(WashPathFixture, HeuristicRoutesAroundDevices) {
  // Target behind the mixer row: path must avoid the device cell.
  const std::vector<Cell> targets = {{5, 3}};
  const auto path = routeWashPathHeuristic(chip_, targets);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
  EXPECT_FALSE(path->contains({4, 3}));  // mixer avoided
}

TEST_F(WashPathFixture, DeviceCellAsTargetIsWashable) {
  const std::vector<Cell> targets = {{4, 3}};  // the mixer itself
  const auto path = routeWashPathHeuristic(chip_, targets);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->contains({4, 3}));
}

TEST_F(WashPathFixture, PocketedTargetTraversesIdleDevice) {
  // Wall the corridor so the only way to the target crosses the device:
  // build a chip where the target's sole neighbours are a device and a
  // waste port.
  arch::ChipLayout chip(5, 3, 3.0);
  chip.addFlowPort({0, 1}, "in");
  chip.addDevice(arch::DeviceKind::Heater, {2, 1}, "heater");
  chip.addWastePort({4, 1}, "out");
  // (3,1) sits between heater (2,1) and port-adjacent (4,1); its other
  // neighbours (3,0) and (3,2) exist, so block them with devices too.
  chip.addDevice(arch::DeviceKind::Storage, {3, 0}, "s1");
  chip.addDevice(arch::DeviceKind::Storage, {3, 2}, "s2");
  const auto path = routeWashPathHeuristic(chip, {{3, 1}});
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->contains({3, 1}));
  EXPECT_TRUE(path->contains({2, 1}));  // had to flush through the heater
}

TEST_F(WashPathFixture, EmptyTargetsRejected) {
  EXPECT_FALSE(routeWashPathIlp(chip_, {}).has_value());
  EXPECT_FALSE(routeWashPathHeuristic(chip_, {}).has_value());
}

TEST_F(WashPathFixture, NoFallbackReportsFailureHonestly) {
  // A starved ILP (one simplex iteration) finds no path: the BFS
  // heuristic's path comes back, and the call reports exactly one fallback
  // in its stats and in the registry.
  WashPathOptions options;
  options.solver.time_limit_seconds = 0.001;
  options.solver.node_limit = 1;
  options.solver.simplex_iteration_limit = 1;
  obs::Counter& fallbacks =
      obs::Registry::instance().counter(obs::names::kPathIlpFallbacks);
  const std::int64_t before = fallbacks.value();
  WashPathStats stats;
  const std::vector<arch::Cell> targets = {{2, 1}, {6, 4}};
  const auto path = routeWashPathIlp(chip_, targets, options, &stats);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
  EXPECT_TRUE(stats.used_fallback);
  EXPECT_EQ(fallbacks.value() - before, 1);
  const auto bfs = routeWashPathHeuristic(chip_, targets);
  ASSERT_TRUE(bfs.has_value());
  EXPECT_EQ(path->cells(), bfs->cells());
}

}  // namespace
}  // namespace pdw::core
