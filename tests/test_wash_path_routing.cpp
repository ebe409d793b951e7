// Wash-path routing: the eq. 12-15 ILP (with lazy connectivity cuts), the
// one-target min-cost flow router, the multi-target simple-path heuristic H
// and the BFS heuristic, cross-checked against each other and against
// exhaustive search on small random chips: over simple paths for one
// target, over self-avoiding, non-touching paths for H.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <string>

#include "assay/benchmarks.h"
#include "core/pathdriver_wash.h"
#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/rng.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/wash_op.h"

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
  // One target builds no ILP: the min-cost flow router's path is exact.
  const std::vector<Cell> targets = {{3, 1}};
  WashPathStats stats;
  const auto path = routeWashPathIlp(chip_, targets, {}, &stats);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
  EXPECT_TRUE(path->isSimpleConnected());
  EXPECT_EQ(stats.ilp_solves, 0);
  EXPECT_FALSE(stats.used_fallback);
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
  // (6,4) is walled in on three sides, a dead end no simple path can pass
  // through and no port is next to: neither the ILP nor H has a path on
  // either pass. The BFS heuristic's spur comes back, and the call reports
  // exactly one fallback in its stats and in the registry.
  WashPathOptions options;
  options.avoid_cells = {{5, 4}, {7, 4}, {6, 5}};
  obs::Counter& fallbacks =
      obs::Registry::instance().counter(obs::names::kPathIlpFallbacks);
  const std::int64_t before = fallbacks.value();
  WashPathStats stats;
  const std::vector<arch::Cell> targets = {{2, 1}, {6, 4}};
  for (const bool whole_grid : {false, true})
    EXPECT_FALSE(washPathPass(chip_, targets, whole_grid, options.avoid_cells)
                     .heuristic.has_value());
  const auto path = routeWashPathIlp(chip_, targets, options, &stats);
  ASSERT_TRUE(path.has_value());
  expectValidWashPath(chip_, *path, targets);
  EXPECT_FALSE(path->isSimpleConnected());  // the spur into (6,4) and back
  EXPECT_TRUE(stats.used_fallback);
  EXPECT_FALSE(stats.used_heuristic);
  EXPECT_EQ(fallbacks.value() - before, 1);
  const auto bfs = routeWashPathHeuristic(chip_, targets, options.avoid_cells);
  ASSERT_TRUE(bfs.has_value());
  EXPECT_EQ(path->cells(), bfs->cells());
}

TEST_F(WashPathFixture, StarvedSearchAnswersWithTheHeuristicPath) {
  // A starved ILP (one simplex iteration) finds no path, but H exists on
  // the restricted pass: H answers, the whole-grid pass never runs, and
  // no fallback is counted.
  WashPathOptions options;
  options.solver.node_limit = 1;
  options.solver.simplex_iteration_limit = 1;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& heuristic = reg.counter(obs::names::kPathIlpHeuristicPaths);
  obs::Counter& fallbacks = reg.counter(obs::names::kPathIlpFallbacks);
  const std::int64_t heuristic_before = heuristic.value();
  const std::int64_t fallbacks_before = fallbacks.value();
  const std::vector<arch::Cell> targets = {{2, 1}, {6, 4}};
  const WashPathPass pass = washPathPass(chip_, targets, false);
  ASSERT_TRUE(pass.heuristic.has_value());
  WashPathStats stats;
  const auto path = routeWashPathIlp(chip_, targets, options, &stats);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->cells(), pass.heuristic->cells());
  EXPECT_TRUE(path->isSimpleConnected());
  EXPECT_EQ(stats.ilp_solves, 1);
  EXPECT_TRUE(stats.used_heuristic);
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_EQ(heuristic.value() - heuristic_before, 1);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 0);
}

// ---- One target: the min-cost flow router --------------------------------

/// Exhaustive oracle for one target: the length in cells (ports included)
/// of the shortest simple flow port -> target -> waste port path whose
/// other cells are all `open`, or 0 when there is none. It enumerates every
/// simple leg from the target to a usable flow port by depth-first search;
/// given one leg, the shortest waste leg that avoids it is a plain BFS. A
/// partial flow leg is cut off once no waste leg avoids it or it cannot
/// beat the best path found.
class SimplePathOracle {
 public:
  SimplePathOracle(const arch::ChipLayout& chip, Cell target,
                   std::vector<char> open,
                   const std::vector<Cell>& blocked)
      : chip_(chip), target_(target), open_(std::move(open)) {
    const std::size_t n = open_.size();
    next_to_flow_.assign(n, 0);
    next_to_waste_.assign(n, 0);
    for (const arch::Port& p : chip.ports()) {
      if (std::find(blocked.begin(), blocked.end(), p.cell) != blocked.end())
        continue;
      for (const Cell& c : chip.neighbors(p.cell))
        (p.is_waste ? next_to_waste_ : next_to_flow_)[index(c)] = 1;
    }
    // Cells still to add before a flow port can close the leg (visits
    // ignored): a lower bound for any extension.
    to_flow_.assign(n, kNone);
    std::deque<Cell> queue;
    for (std::size_t i = 0; i < n; ++i)
      if (open_[i] && next_to_flow_[i]) {
        to_flow_[i] = 0;
        queue.push_back(cellOf(i));
      }
    while (!queue.empty()) {
      const Cell c = queue.front();
      queue.pop_front();
      for (const Cell& m : chip.neighbors(c))
        if (open_[index(m)] && to_flow_[index(m)] == kNone) {
          to_flow_[index(m)] = to_flow_[index(c)] + 1;
          queue.push_back(m);
        }
    }
  }

  int shortest() {
    visited_.assign(open_.size(), 0);
    visited_[index(target_)] = 1;
    best_ = kNone;
    extend(target_, 1);
    return best_ == kNone ? 0 : best_;
  }

 private:
  static constexpr int kNone = std::numeric_limits<int>::max() / 4;

  std::size_t index(Cell c) const {
    return static_cast<std::size_t>(chip_.cellIndex(c));
  }
  Cell cellOf(std::size_t i) const {
    return Cell{static_cast<int>(i) % chip_.width(),
                static_cast<int>(i) / chip_.width()};
  }

  /// Cells of the shortest waste leg (the waste port included) that avoids
  /// every visited cell but the target, or kNone.
  int wasteLeg() const {
    if (next_to_waste_[index(target_)]) return 1;
    std::vector<int> dist(open_.size(), kNone);
    dist[index(target_)] = 0;
    std::deque<Cell> queue{target_};
    while (!queue.empty()) {
      const Cell c = queue.front();
      queue.pop_front();
      for (const Cell& m : chip_.neighbors(c)) {
        const std::size_t i = index(m);
        if (!open_[i] || visited_[i] || dist[i] != kNone) continue;
        dist[i] = dist[index(c)] + 1;
        if (next_to_waste_[i]) return dist[i] + 1;
        queue.push_back(m);
      }
    }
    return kNone;
  }

  /// The flow leg so far ends at `cur` and holds `cells` cells, the target
  /// included.
  void extend(Cell cur, int cells) {
    const int waste = wasteLeg();
    if (waste == kNone || to_flow_[index(cur)] == kNone) return;
    if (cells + to_flow_[index(cur)] + 1 + waste >= best_) return;
    if (next_to_flow_[index(cur)]) best_ = std::min(best_, cells + 1 + waste);
    for (const Cell& m : chip_.neighbors(cur)) {
      const std::size_t i = index(m);
      if (!open_[i] || visited_[i]) continue;
      visited_[i] = 1;
      extend(m, cells + 1);
      visited_[i] = 0;
    }
  }

  const arch::ChipLayout& chip_;
  Cell target_;
  std::vector<char> open_;
  std::vector<char> next_to_flow_, next_to_waste_, visited_;
  std::vector<int> to_flow_;
  int best_ = kNone;
};

/// A random chip 3-7 cells a side: 1-3 flow and 1-3 waste ports on the
/// border, devices, and blocked cells drawn from every cell (ports too).
struct SmallChip {
  std::unique_ptr<arch::ChipLayout> chip;
  std::vector<Cell> blocked;

  explicit SmallChip(util::Rng& rng) {
    const int w = rng.intIn(3, 7);
    const int h = rng.intIn(3, 7);
    chip = std::make_unique<arch::ChipLayout>(w, h, 3.0);
    std::vector<Cell> border;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (x == 0 || y == 0 || x == w - 1 || y == h - 1)
          border.push_back({x, y});
    rng.shuffle(border);
    const int flow = rng.intIn(1, 3);
    const int waste = rng.intIn(1, 3);
    std::size_t next = 0;
    for (int i = 0; i < flow; ++i) chip->addFlowPort(border[next++]);
    for (int i = 0; i < waste; ++i) chip->addWastePort(border[next++]);
    std::vector<Cell> free;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (!chip->isPortCell({x, y})) free.push_back({x, y});
    rng.shuffle(free);
    const int devices = rng.intIn(0, w * h / 5);
    for (int i = 0; i < devices; ++i)
      chip->addDevice(arch::DeviceKind::Mixer,
                      free[static_cast<std::size_t>(i)]);
    const double density = 0.2 * rng.uniform();
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (rng.chance(density)) blocked.push_back({x, y});
  }
};

bool contains(const std::vector<Cell>& cells, Cell c) {
  return std::find(cells.begin(), cells.end(), c) != cells.end();
}

TEST(OneTargetRoute, MatchesExhaustiveSimplePaths) {
  util::Rng rng(0x0e7a26e7u);
  int routed = 0, fallbacks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const SmallChip sc(rng);
    const arch::ChipLayout& chip = *sc.chip;
    WashPathOptions options;
    options.avoid_cells = sc.blocked;
    for (int y = 0; y < chip.height(); ++y)
      for (int x = 0; x < chip.width(); ++x) {
        const Cell target{x, y};
        if (chip.isPortCell(target)) continue;
        const std::string where = "target " + arch::toString(target) +
                                  " on\n" + chip.render();
        WashPathStats stats;
        const auto path = routeWashPathIlp(chip, {target}, options, &stats);
        EXPECT_EQ(stats.ilp_solves, 0) << where;
        if (contains(sc.blocked, target)) {
          EXPECT_FALSE(path.has_value()) << where;
          continue;
        }

        // The oracle, pass by pass: foreign devices excluded, then
        // admitted.
        int want = 0;
        bool first_pass = false;
        for (const bool admit_devices : {false, true}) {
          std::vector<char> open(
              static_cast<std::size_t>(chip.width() * chip.height()), 0);
          for (int i = 0; i < chip.width() * chip.height(); ++i) {
            const Cell c{i % chip.width(), i / chip.width()};
            open[static_cast<std::size_t>(i)] =
                !chip.isPortCell(c) && !contains(sc.blocked, c) &&
                (admit_devices || c == target || !chip.isDeviceCell(c));
          }
          SimplePathOracle oracle(chip, target, std::move(open), sc.blocked);
          want = oracle.shortest();
          if (want > 0) {
            first_pass = !admit_devices;
            break;
          }
        }

        const auto again = routeWashPathIlp(chip, {target}, options);
        EXPECT_EQ(path.has_value(), again.has_value()) << where;
        if (path && again) {
          EXPECT_EQ(path->cells(), again->cells()) << where;
        }

        if (want == 0) {
          // No simple path: the BFS heuristic's answer comes back.
          ++fallbacks;
          EXPECT_TRUE(stats.used_fallback) << where;
          const auto bfs = routeWashPathHeuristic(chip, {target}, sc.blocked);
          EXPECT_EQ(path.has_value(), bfs.has_value()) << where;
          if (path && bfs) {
            EXPECT_EQ(path->cells(), bfs->cells()) << where;
          }
          continue;
        }
        ++routed;
        EXPECT_FALSE(stats.used_fallback) << where;
        ASSERT_TRUE(path.has_value()) << where;
        EXPECT_EQ(static_cast<int>(path->size()), want) << where;
        EXPECT_TRUE(path->isSimpleConnected()) << where;
        const auto front = chip.portAt(path->front());
        const auto back = chip.portAt(path->back());
        ASSERT_TRUE(front.has_value() && back.has_value()) << where;
        EXPECT_FALSE(chip.port(*front).is_waste) << where;
        EXPECT_TRUE(chip.port(*back).is_waste) << where;
        EXPECT_TRUE(path->contains(target)) << where;
        for (const Cell& c : path->cells()) {
          EXPECT_FALSE(contains(sc.blocked, c)) << where;
          if (first_pass && c != target) {
            EXPECT_FALSE(chip.isDeviceCell(c)) << where;
          }
        }
        for (std::size_t i = 1; i + 1 < path->size(); ++i)
          EXPECT_FALSE(chip.isPortCell(path->cells()[i])) << where;
      }
  }
  // Both outcomes occur often enough to matter.
  EXPECT_GT(routed, 1000);
  EXPECT_GT(fallbacks, 50);
}

TEST(OneTargetRoute, TableTwoOperationsRunNoIlp) {
  // Every one-target operation of the eight Table-II plans, at the bench
  // work caps: no ILP, no fallback, a simple path.
  core::PdwOptions options;
  options.withPathBudget(3600.0, 20);
  int one_target = 0;
  for (const assay::BenchmarkId id : assay::allBenchmarks()) {
    const assay::Benchmark bench = assay::makeBenchmark(id);
    const synth::SynthResult synth = synth::synthesizeOnChip(
        *bench.graph, synth::placeChip(bench.library));
    const arch::ChipLayout& chip = synth.schedule.chip();
    const wash::ContaminationTracker tracker(synth.schedule);
    wash::NecessityResult necessity =
        wash::analyzeWashNecessity(tracker, options.necessity);
    for (const wash::WashOperation& op :
         wash::clusterTargets(std::move(necessity.targets), options.cluster)) {
      const std::vector<Cell> targets = op.targetCells();
      if (targets.size() != 1) continue;
      ++one_target;
      WashPathOptions path_options;
      path_options.solver = options.solver.path;
      WashPathStats stats;
      const auto path = routeWashPathIlp(chip, targets, path_options, &stats);
      ASSERT_TRUE(path.has_value()) << assay::toString(id);
      EXPECT_EQ(stats.ilp_solves, 0) << assay::toString(id);
      EXPECT_FALSE(stats.used_fallback) << assay::toString(id);
      EXPECT_TRUE(path->isSimpleConnected()) << assay::toString(id);
      EXPECT_TRUE(path->contains(targets.front())) << assay::toString(id);
    }
  }
  EXPECT_GT(one_target, 0);
}

// ---- Several targets: H, the simple-path heuristic -------------------------

/// Exhaustive oracle for several targets: the length in cells (ports
/// included) of the shortest flow port -> ... -> waste port path over the
/// `open` cells that covers every target and never touches itself (no two
/// non-consecutive cells are neighbours, eq. 14), or 0 when there is none.
/// Depth-first search over such paths from every cell next to a usable
/// flow port, cut off once a lower bound cannot beat the best path found:
/// the farthest uncovered target, measured on the open grid, plus its
/// distance to a cell next to a usable waste port.
class InducedPathOracle {
 public:
  InducedPathOracle(const arch::ChipLayout& chip, std::vector<char> open,
                    const std::vector<Cell>& blocked,
                    const std::vector<Cell>& targets)
      : chip_(chip), open_(std::move(open)) {
    const std::size_t n = open_.size();
    next_to_flow_.assign(n, 0);
    next_to_waste_.assign(n, 0);
    for (const arch::Port& p : chip.ports()) {
      if (contains(blocked, p.cell)) continue;
      for (const Cell& c : chip.neighbors(p.cell))
        (p.is_waste ? next_to_waste_ : next_to_flow_)[index(c)] = 1;
    }
    std::vector<std::size_t> wastes;
    for (std::size_t i = 0; i < n; ++i)
      if (next_to_waste_[i]) wastes.push_back(i);
    to_waste_ = distances(wastes);
    is_target_.assign(n, 0);
    for (const Cell& t : targets) {
      if (is_target_[index(t)]) continue;
      is_target_[index(t)] = 1;
      targets_.push_back(index(t));
      from_target_.push_back(distances({index(t)}));
    }
  }

  int shortest() {
    placed_.assign(open_.size(), 0);
    placed_neighbours_.assign(open_.size(), 0);
    covered_.assign(open_.size(), 0);
    uncovered_ = static_cast<int>(targets_.size());
    best_ = kNone;
    for (std::size_t i = 0; i < open_.size(); ++i) {
      if (!open_[i] || !next_to_flow_[i]) continue;
      place(i, +1);
      extend(i, 1);
      place(i, -1);
    }
    return best_ == kNone ? 0 : best_;
  }

 private:
  static constexpr int kNone = std::numeric_limits<int>::max() / 4;

  std::size_t index(Cell c) const {
    return static_cast<std::size_t>(chip_.cellIndex(c));
  }
  Cell cellOf(std::size_t i) const {
    return Cell{static_cast<int>(i) % chip_.width(),
                static_cast<int>(i) / chip_.width()};
  }

  /// BFS distances over the open cells from `sources`.
  std::vector<int> distances(const std::vector<std::size_t>& sources) const {
    std::vector<int> dist(open_.size(), kNone);
    std::deque<std::size_t> queue;
    for (const std::size_t s : sources)
      if (open_[s]) {
        dist[s] = 0;
        queue.push_back(s);
      }
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const Cell& m : chip_.neighbors(cellOf(u))) {
        const std::size_t v = index(m);
        if (open_[v] && dist[v] == kNone) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    return dist;
  }

  /// Add (+1) or remove (-1) cell `i` from the path.
  void place(std::size_t i, int sign) {
    placed_[i] = sign > 0;
    for (const Cell& m : chip_.neighbors(cellOf(i)))
      placed_neighbours_[index(m)] += sign;
    if (is_target_[i]) {
      covered_[i] = sign > 0;
      uncovered_ -= sign;
    }
  }

  /// The path so far ends at `cur` and holds `cells` cells (ports not
  /// counted).
  void extend(std::size_t cur, int cells) {
    int need = 0;  // cells still to add, at least
    for (std::size_t k = 0; k < targets_.size(); ++k) {
      if (covered_[targets_[k]]) continue;
      const int d = from_target_[k][cur];
      const int w = to_waste_[targets_[k]];
      if (d == kNone || w == kNone) return;
      need = std::max(need, d + w);
    }
    if (uncovered_ == 0) {
      if (to_waste_[cur] == kNone) return;
      need = to_waste_[cur];
    }
    if (cells + need + 2 >= best_) return;
    if (uncovered_ == 0 && next_to_waste_[cur]) {
      best_ = cells + 2;
      return;
    }
    for (const Cell& m : chip_.neighbors(cellOf(cur))) {
      const std::size_t i = index(m);
      // The new cell may touch the path at `cur` only.
      if (!open_[i] || placed_[i] || placed_neighbours_[i] != 1) continue;
      place(i, +1);
      extend(i, cells + 1);
      place(i, -1);
    }
  }

  const arch::ChipLayout& chip_;
  std::vector<char> open_;
  std::vector<char> next_to_flow_, next_to_waste_, is_target_;
  std::vector<std::size_t> targets_;
  std::vector<std::vector<int>> from_target_;
  std::vector<int> to_waste_;
  std::vector<char> placed_, covered_;
  std::vector<int> placed_neighbours_;
  int uncovered_ = 0;
  int best_ = kNone;
};

/// The properties H promises on one pass: a flow port, then the pass's
/// cells, then a waste port; every target covered; no cell repeated and no
/// two non-consecutive cells neighbours; and its point feasible for the
/// pass's eqs. 12-15 model, with objective |H| - 2.
void expectHeuristicProperties(const arch::ChipLayout& chip,
                               const WashPathPass& pass,
                               const std::vector<Cell>& targets,
                               const std::vector<Cell>& blocked,
                               const std::string& where) {
  const arch::FlowPath& h = *pass.heuristic;
  const std::vector<Cell>& cells = h.cells();
  ASSERT_GE(cells.size(), 3u) << where;
  const auto front = chip.portAt(cells.front());
  const auto back = chip.portAt(cells.back());
  ASSERT_TRUE(front.has_value() && back.has_value()) << where;
  EXPECT_FALSE(chip.port(*front).is_waste) << where;
  EXPECT_TRUE(chip.port(*back).is_waste) << where;
  EXPECT_FALSE(contains(blocked, cells.front())) << where;
  EXPECT_FALSE(contains(blocked, cells.back())) << where;
  EXPECT_TRUE(h.isSimpleConnected()) << where;
  for (const Cell& t : targets) EXPECT_TRUE(h.contains(t)) << where;
  for (std::size_t i = 1; i + 1 < cells.size(); ++i) {
    EXPECT_TRUE(contains(pass.cells, cells[i])) << where;
    for (std::size_t j = i + 2; j + 1 < cells.size(); ++j)
      EXPECT_FALSE(arch::adjacent(cells[i], cells[j]))
          << where << "\ntouches itself at " << arch::toString(cells[i])
          << " and " << arch::toString(cells[j]);
  }
  EXPECT_EQ(pass.model.firstViolation(pass.heuristic_point, 1e-9), "")
      << where;
  EXPECT_EQ(pass.model.objective().evaluate(pass.heuristic_point),
            static_cast<double>(cells.size() - 2))
      << where;
}

TEST(SimplePathHeuristic, FeasibleDeterministicAndCloseToExhaustive) {
  // Random 3-7-cell chips with devices, blocked cells and 2-5 targets, on
  // both passes: H keeps every promise above, a second call (targets in
  // another order) returns the same cells, and exhaustive search over
  // self-avoiding, non-touching paths finds none shorter and none at all
  // where H is absent. How often H misses an existing path, and how much
  // longer it is than the shortest, is reported and bounded.
  util::Rng rng(0x5e1f1a7du);
  int cases = 0, none = 0, found = 0, exact = 0, misses = 0, gap_sum = 0;
  int gap_max = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const SmallChip sc(rng);
    const arch::ChipLayout& chip = *sc.chip;
    std::vector<Cell> free;
    for (int y = 0; y < chip.height(); ++y)
      for (int x = 0; x < chip.width(); ++x)
        if (!chip.isPortCell({x, y}) && !contains(sc.blocked, {x, y}))
          free.push_back({x, y});
    if (free.size() < 2) continue;
    rng.shuffle(free);
    const int k = std::min(static_cast<int>(free.size()), rng.intIn(2, 5));
    std::vector<Cell> targets(free.begin(), free.begin() + k);
    for (const bool whole_grid : {false, true}) {
      ++cases;
      const std::string where = "targets " + std::to_string(k) +
                                (whole_grid ? ", whole grid" : ", region") +
                                " on\n" + chip.render();
      const WashPathPass pass =
          washPathPass(chip, targets, whole_grid, sc.blocked);
      std::vector<Cell> shuffled = targets;
      rng.shuffle(shuffled);
      const WashPathPass again =
          washPathPass(chip, shuffled, whole_grid, sc.blocked);
      EXPECT_EQ(pass.heuristic.has_value(), again.heuristic.has_value())
          << where;
      if (pass.heuristic && again.heuristic) {
        EXPECT_EQ(pass.heuristic->cells(), again.heuristic->cells())
            << where;
      }

      std::vector<char> open(
          static_cast<std::size_t>(chip.width() * chip.height()), 0);
      for (const Cell& c : pass.cells)
        open[static_cast<std::size_t>(chip.cellIndex(c))] = 1;
      InducedPathOracle oracle(chip, std::move(open), sc.blocked, targets);
      const int want = oracle.shortest();
      if (want == 0) {
        ++none;
        EXPECT_FALSE(pass.heuristic.has_value()) << where;
        continue;
      }
      if (!pass.heuristic) {
        ++misses;
        continue;
      }
      ++found;
      expectHeuristicProperties(chip, pass, targets, sc.blocked, where);
      const int gap = static_cast<int>(pass.heuristic->size()) - want;
      EXPECT_GE(gap, 0) << where;
      exact += gap == 0;
      gap_sum += gap;
      gap_max = std::max(gap_max, gap);
    }
  }
  std::printf(
      "H over %d passes: %d without a path; of the %d with one, H misses "
      "%d and finds %d (%d shortest; length gap mean %.2f, max %d cells)\n",
      cases, none, found + misses, misses, found, exact,
      found > 0 ? static_cast<double>(gap_sum) / found : 0.0, gap_max);
  RecordProperty("misses", misses);
  RecordProperty("gap_sum", gap_sum);
  // Every regime occurs often enough to matter.
  EXPECT_GT(none, 50);
  EXPECT_GT(found, 200);
  // H is a heuristic: it may miss a path or exceed the shortest, but
  // rarely and by little.
  EXPECT_LE(misses * 10, found + misses);
  EXPECT_LE(gap_sum * 4, found);
}

TEST(MultiTargetRoute, TableTwoPathsNeverLongerThanTheHeuristic) {
  // Every multi-target operation of the eight Table-II plans, at the bench
  // work caps: the path is never longer than the restricted pass's H, and
  // the BFS fallback comes back only where neither pass has an H.
  core::PdwOptions options;
  options.withPathBudget(3600.0, 20);
  int multi = 0, with_h = 0, heuristic = 0, fallbacks = 0;
  for (const assay::BenchmarkId id : assay::allBenchmarks()) {
    const assay::Benchmark bench = assay::makeBenchmark(id);
    const synth::SynthResult synth = synth::synthesizeOnChip(
        *bench.graph, synth::placeChip(bench.library));
    const arch::ChipLayout& chip = synth.schedule.chip();
    const wash::ContaminationTracker tracker(synth.schedule);
    wash::NecessityResult necessity =
        wash::analyzeWashNecessity(tracker, options.necessity);
    for (const wash::WashOperation& op :
         wash::clusterTargets(std::move(necessity.targets), options.cluster)) {
      const std::vector<Cell> targets = op.targetCells();
      if (targets.size() < 2) continue;
      ++multi;
      const std::string where =
          std::string(assay::toString(id)) + ", " +
          std::to_string(targets.size()) +
          " targets";
      WashPathOptions path_options;
      path_options.solver = options.solver.path;
      WashPathStats stats;
      const auto path = routeWashPathIlp(chip, targets, path_options, &stats);
      ASSERT_TRUE(path.has_value()) << where;
      EXPECT_TRUE(path->coversAll(targets)) << where;
      const WashPathPass restricted = washPathPass(chip, targets, false);
      const WashPathPass whole = washPathPass(chip, targets, true);
      if (restricted.heuristic) {
        ++with_h;
        EXPECT_LE(path->size(), restricted.heuristic->size()) << where;
      }
      if (stats.used_fallback) {
        ++fallbacks;
        EXPECT_FALSE(restricted.heuristic.has_value()) << where;
        EXPECT_FALSE(whole.heuristic.has_value()) << where;
      }
      if (stats.used_heuristic) {
        ++heuristic;
        EXPECT_TRUE(path->isSimpleConnected()) << where;
      }
    }
  }
  std::printf(
      "%d multi-target operations: %d with a restricted-pass H, %d answered "
      "by H, %d BFS fallbacks\n",
      multi, with_h, heuristic, fallbacks);
  EXPECT_GT(with_h, 0);
  EXPECT_GT(heuristic, 0);
}

}  // namespace
}  // namespace pdw::core
