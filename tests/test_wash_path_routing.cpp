// Wash-path routing: the eq. 12-15 ILP (with lazy connectivity cuts), the
// one-target min-cost flow router and the BFS heuristic, cross-checked
// against each other and, for one target, against exhaustive search over
// simple paths on small random chips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

}  // namespace
}  // namespace pdw::core
