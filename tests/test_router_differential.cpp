// Path-identity suite for the grid router. Router searches flat per-cell
// arrays, shares one search across all targets of a leg and one greedy
// chain across all sinks of a wash path; the test-only ReferenceRouter
// (reference_router.h) runs one std::map BFS per route and one routeVia per
// (flow port, waste port) pair. Every path must agree cell for cell
// (DESIGN.md §16): BFS paths enter plans whenever they beat the path ILP or
// it fails, so a changed tie-break would change Table II.
//
// Two input sets:
//   * random chips, 3-16 cells a side, 1-3 flow and 1-3 waste ports on the
//     border, devices and random blocked sets. Endpoints, waypoints and
//     targets are drawn heavily from port, device, blocked and out-of-grid
//     cells, duplicates and the source itself: a search that routed
//     through a port or blocked endpoint only shows on such inputs;
//   * the eight Table-II chips with the wash targets the PDW pipeline
//     routes, with and without one blocked path cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/router.h"
#include "assay/benchmarks.h"
#include "core/pathdriver_wash.h"
#include "core/wash_path_ilp.h"
#include "reference_router.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/rng.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/wash_op.h"

namespace pdw::arch {
namespace {

using Cells = std::optional<std::vector<Cell>>;

Cells cellsOf(const std::optional<FlowPath>& path) {
  if (!path) return std::nullopt;
  return path->cells();
}

std::string describe(const Cells& cells) {
  if (!cells) return "none";
  std::ostringstream out;
  for (const Cell& c : *cells) out << toString(c);
  return out.str();
}

std::string describe(const std::vector<Cell>& cells) {
  return describe(Cells(cells));
}

/// Counts queries and mismatches; reports the first few mismatches in full.
class Tally {
 public:
  ~Tally() {
    EXPECT_EQ(mismatches_, 0) << "of " << queries_ << " queries";
  }

  void check(const Cells& got, const Cells& want,
             const std::function<std::string()>& query) {
    ++queries_;
    if (got == want) return;
    if (++mismatches_ <= 5)
      ADD_FAILURE() << query() << "\n  got  " << describe(got)
                    << "\n  want " << describe(want);
  }

 private:
  int queries_ = 0;
  int mismatches_ = 0;
};

/// A random chip with a random blocked set and a picker for the endpoints
/// that stress the router's rules.
class RandomChip {
 public:
  explicit RandomChip(util::Rng& rng) : rng_(rng) {
    const int w = rng.intIn(3, 16);
    const int h = rng.intIn(3, 16);
    chip_ = std::make_unique<ChipLayout>(w, h, 3.0);
    std::vector<Cell> border;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (x == 0 || y == 0 || x == w - 1 || y == h - 1)
          border.push_back({x, y});
    rng.shuffle(border);
    const int flow = rng.intIn(1, 3);
    const int waste = rng.intIn(1, 3);
    std::size_t next = 0;
    for (int i = 0; i < flow; ++i) chip_->addFlowPort(border[next++]);
    for (int i = 0; i < waste; ++i) chip_->addWastePort(border[next++]);

    std::vector<Cell> free;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (!chip_->isPortCell({x, y})) free.push_back({x, y});
    rng.shuffle(free);
    const int devices = rng.intIn(0, w * h / 6);
    for (int i = 0; i < devices; ++i)
      chip_->addDevice(DeviceKind::Mixer, free[static_cast<std::size_t>(i)]);

    blocked_ = chip_->makeCellSet();
    const double density = 0.35 * rng.uniform();
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        if (rng.chance(density)) blocked_.insert({x, y});
    blocked_cells_ = blocked_.toVector();
  }

  const ChipLayout& chip() const { return *chip_; }
  /// The blocked set or none, at random.
  const CellSet* someBlocked() {
    return rng_.chance(0.7) ? &blocked_ : nullptr;
  }

  Cell inGrid() {
    return {rng_.intIn(0, chip_->width() - 1),
            rng_.intIn(0, chip_->height() - 1)};
  }

  Cell outOfGrid() {
    const int w = chip_->width();
    const int h = chip_->height();
    switch (rng_.intIn(0, 4)) {
      case 0: return {-1, rng_.intIn(0, h - 1)};
      case 1: return {w, rng_.intIn(0, h - 1)};
      case 2: return {rng_.intIn(0, w - 1), -1};
      case 3: return {rng_.intIn(0, w - 1), h};
      default: return {-3, -3};
    }
  }

  /// An endpoint: mostly ports, devices and blocked cells, sometimes out of
  /// the grid or equal to `source`.
  Cell pick(std::optional<Cell> source = std::nullopt) {
    const std::vector<Port>& ports = chip_->ports();
    const std::vector<Device>& devices = chip_->devices();
    switch (rng_.intIn(0, 9)) {
      case 0:
      case 1: return ports[rng_.index(ports.size())].cell;
      case 2:
        if (!devices.empty()) return devices[rng_.index(devices.size())].cell;
        return inGrid();
      case 3:
      case 4:
        if (!blocked_cells_.empty())
          return blocked_cells_[rng_.index(blocked_cells_.size())];
        return inGrid();
      case 5: return outOfGrid();
      case 6:
        if (source) return *source;
        return inGrid();
      default: return inGrid();
    }
  }

  /// 1-6 picks plus, sometimes, duplicates of earlier ones.
  std::vector<Cell> pickList(std::optional<Cell> source = std::nullopt) {
    std::vector<Cell> cells;
    const int n = rng_.intIn(1, 6);
    for (int i = 0; i < n; ++i) cells.push_back(pick(source));
    while (rng_.chance(0.3)) cells.push_back(cells[rng_.index(cells.size())]);
    return cells;
  }

  /// Wash targets: mostly free in-grid cells, sometimes any pick.
  std::vector<Cell> pickTargets() {
    std::vector<Cell> cells;
    const int n = rng_.intIn(1, 6);
    for (int i = 0; i < n; ++i)
      cells.push_back(rng_.chance(0.75) ? inGrid() : pick());
    if (rng_.chance(0.2)) cells.push_back(cells[rng_.index(cells.size())]);
    return cells;
  }

  /// Cells a wash path must avoid (in-grid only): a random scatter, now and
  /// then a port or a target.
  std::vector<Cell> pickAvoid(const std::vector<Cell>& targets) {
    std::vector<Cell> avoid;
    const int n = rng_.intIn(0, chip_->width() * chip_->height() / 8);
    for (int i = 0; i < n; ++i) avoid.push_back(inGrid());
    const std::vector<Port>& ports = chip_->ports();
    if (rng_.chance(0.3)) avoid.push_back(ports[rng_.index(ports.size())].cell);
    if (rng_.chance(0.1)) {
      const Cell t = targets[rng_.index(targets.size())];
      if (chip_->contains(t)) avoid.push_back(t);
    }
    return avoid;
  }

 private:
  util::Rng& rng_;
  std::unique_ptr<ChipLayout> chip_;
  CellSet blocked_;
  std::vector<Cell> blocked_cells_;
};

constexpr int kChips = 400;

TEST(RouterDifferential, RouteMatchesReference) {
  util::Rng rng(101);
  Tally tally;
  for (int n = 0; n < kChips; ++n) {
    RandomChip rc(rng);
    const Router router(rc.chip());
    const reference::ReferenceRouter ref(rc.chip());
    for (int q = 0; q < 25; ++q) {
      const Cell from = rc.pick();
      const Cell to = rc.pick(from);
      const CellSet* blocked = rc.someBlocked();
      const auto query = [&] {
        return "route " + toString(from) + " -> " + toString(to) +
               (blocked ? " blocked" : "") + " on\n" + rc.chip().render();
      };
      tally.check(cellsOf(router.route(from, to, blocked)),
                  cellsOf(ref.route(from, to, blocked)), query);
      EXPECT_EQ(router.distance(from, to, blocked),
                ref.distance(from, to, blocked))
          << query();
    }
  }
}

TEST(RouterDifferential, RouteViaMatchesReference) {
  util::Rng rng(202);
  Tally tally;
  for (int n = 0; n < kChips; ++n) {
    RandomChip rc(rng);
    const Router router(rc.chip());
    const reference::ReferenceRouter ref(rc.chip());
    for (int q = 0; q < 12; ++q) {
      const Cell from = rc.pick();
      const std::vector<Cell> waypoints = rc.pickList(from);
      const Cell to = rc.pick(from);
      const CellSet* blocked = rc.someBlocked();
      tally.check(cellsOf(router.routeVia(from, waypoints, to, blocked)),
                  cellsOf(ref.routeVia(from, waypoints, to, blocked)), [&] {
                    return "routeVia " + toString(from) + " via " +
                           describe(waypoints) + " -> " + toString(to) +
                           (blocked ? " blocked" : "") + " on\n" +
                           rc.chip().render();
                  });
    }
  }
}

// routeViaEach with no waypoints: one multi-target search, element i a
// route() of its own.
TEST(RouterDifferential, MultiTargetSearchMatchesReference) {
  util::Rng rng(303);
  Tally tally;
  for (int n = 0; n < kChips; ++n) {
    RandomChip rc(rng);
    const Router router(rc.chip());
    const reference::ReferenceRouter ref(rc.chip());
    for (int q = 0; q < 8; ++q) {
      const Cell from = rc.pick();
      std::vector<Cell> targets = rc.pickList(from);
      // Every waste port too: the tail search of a wash path.
      for (PortId wp : rc.chip().wastePorts())
        targets.push_back(rc.chip().port(wp).cell);
      const CellSet* blocked = rc.someBlocked();
      const auto paths = router.routeViaEach(from, {}, targets, blocked);
      ASSERT_EQ(paths.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i)
        tally.check(cellsOf(paths[i]),
                    cellsOf(ref.route(from, targets[i], blocked)), [&] {
                      return "search " + toString(from) + " -> " +
                             toString(targets[i]) + " of " +
                             describe(targets) + (blocked ? " blocked" : "") +
                             " on\n" + rc.chip().render();
                    });
    }
  }
}

TEST(RouterDifferential, RouteViaEachMatchesReference) {
  util::Rng rng(404);
  Tally tally;
  for (int n = 0; n < kChips; ++n) {
    RandomChip rc(rng);
    const Router router(rc.chip());
    const reference::ReferenceRouter ref(rc.chip());
    for (int q = 0; q < 6; ++q) {
      const Cell from = rc.pick();
      const std::vector<Cell> waypoints = rc.pickList(from);
      // The waste ports, plus sinks that coincide with a waypoint (their
      // own chain drops it) or with the source, or lie off the grid.
      std::vector<Cell> sinks;
      for (PortId wp : rc.chip().wastePorts())
        sinks.push_back(rc.chip().port(wp).cell);
      for (int i = 0; i < 2; ++i)
        sinks.push_back(rng.chance(0.5)
                            ? waypoints[rng.index(waypoints.size())]
                            : rc.pick(from));
      const CellSet* blocked = rc.someBlocked();
      const auto paths = router.routeViaEach(from, waypoints, sinks, blocked);
      ASSERT_EQ(paths.size(), sinks.size());
      for (std::size_t i = 0; i < sinks.size(); ++i)
        tally.check(cellsOf(paths[i]),
                    cellsOf(ref.routeVia(from, waypoints, sinks[i], blocked)),
                    [&] {
                      return "routeViaEach " + toString(from) + " via " +
                             describe(waypoints) + " -> " +
                             toString(sinks[i]) +
                             (blocked ? " blocked" : "") + " on\n" +
                             rc.chip().render();
                    });
    }
  }
}

TEST(RouterDifferential, WashPathHeuristicMatchesReference) {
  util::Rng rng(505);
  Tally tally;
  for (int n = 0; n < kChips; ++n) {
    RandomChip rc(rng);
    for (int q = 0; q < 4; ++q) {
      const std::vector<Cell> targets = rc.pickTargets();
      const std::vector<Cell> avoid =
          rng.chance(0.6) ? rc.pickAvoid(targets) : std::vector<Cell>{};
      tally.check(
          cellsOf(core::routeWashPathHeuristic(rc.chip(), targets, avoid)),
          cellsOf(reference::routeWashPathHeuristic(rc.chip(), targets, avoid)),
          [&] {
            return "heuristic targets " + describe(targets) + " avoid " +
                   describe(avoid) + " on\n" + rc.chip().render();
          });
    }
  }
}

/// The wash targets of every Table-II plan, routed on their own chips: each
/// clustered operation as the pipeline routes it, then again with the first
/// non-port, non-target cell of its path blocked.
TEST(RouterDifferential, TableTwoWashTargets) {
  const core::PdwOptions options;
  Tally tally;
  for (const assay::BenchmarkId id : assay::allBenchmarks()) {
    const assay::Benchmark bench = assay::makeBenchmark(id);
    const synth::SynthResult synth = synth::synthesizeOnChip(
        *bench.graph, synth::placeChip(bench.library));
    const ChipLayout& chip = synth.schedule.chip();
    const wash::ContaminationTracker tracker(synth.schedule);
    wash::NecessityResult necessity =
        wash::analyzeWashNecessity(tracker, options.necessity);
    const std::vector<wash::WashOperation> operations =
        wash::clusterTargets(std::move(necessity.targets), options.cluster);
    ASSERT_FALSE(operations.empty()) << assay::toString(id);
    for (const wash::WashOperation& op : operations) {
      const std::vector<Cell> targets = op.targetCells();
      const auto path = core::routeWashPathHeuristic(chip, targets);
      tally.check(cellsOf(path),
                  cellsOf(reference::routeWashPathHeuristic(chip, targets)),
                  [&] {
                    return std::string(assay::toString(id)) + " targets " +
                           describe(targets);
                  });
      ASSERT_TRUE(path.has_value()) << assay::toString(id);
      std::vector<Cell> avoid;
      for (const Cell& c : path->cells())
        if (!chip.isPortCell(c) &&
            std::find(targets.begin(), targets.end(), c) == targets.end()) {
          avoid.push_back(c);
          break;
        }
      if (avoid.empty()) continue;
      tally.check(
          cellsOf(core::routeWashPathHeuristic(chip, targets, avoid)),
          cellsOf(reference::routeWashPathHeuristic(chip, targets, avoid)),
          [&] {
            return std::string(assay::toString(id)) + " targets " +
                   describe(targets) + " avoid " + describe(avoid);
          });
    }
  }
}

}  // namespace
}  // namespace pdw::arch
