// Test-only oracle for the grid router (arch/router.h) and the BFS wash-path
// heuristic (core/wash_path_ilp.h).
//
// ReferenceRouter is the router before its searches moved to flat arrays:
// one breadth-first search per route with std::map parents, a neighbour list
// per expansion and a linear scan of the ports for every port check.
// routeVia chains greedily by running one route per remaining waypoint per
// leg, and the reference heuristic runs a full routeVia for every
// (flow port, waste port) pair. The production code must return the same
// paths cell for cell (DESIGN.md §16).
#pragma once

#include <optional>
#include <vector>

#include "arch/chip.h"
#include "arch/path.h"

namespace pdw::arch::reference {

class ReferenceRouter {
 public:
  explicit ReferenceRouter(const ChipLayout& chip) : chip_(&chip) {}

  /// As Router::route.
  std::optional<FlowPath> route(Cell from, Cell to,
                                const CellSet* blocked = nullptr) const;

  /// As Router::routeVia.
  std::optional<FlowPath> routeVia(Cell from, std::vector<Cell> waypoints,
                                   Cell to,
                                   const CellSet* blocked = nullptr) const;

  /// As Router::distance.
  std::optional<int> distance(Cell from, Cell to,
                              const CellSet* blocked = nullptr) const;

 private:
  bool isPort(Cell c) const;
  bool traversable(Cell c, Cell from, Cell to, const CellSet* blocked) const;

  const ChipLayout* chip_;
};

/// As core::routeWashPathHeuristic.
std::optional<FlowPath> routeWashPathHeuristic(
    const ChipLayout& chip, const std::vector<Cell>& targets,
    const std::vector<Cell>& avoid_cells = {});

}  // namespace pdw::arch::reference
