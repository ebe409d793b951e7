// Wash-path routing.
//
// ILP formulation of paper eqs. 12-15: choose one flow port and one waste
// port (eq. 12), exactly one path cell adjacent to each chosen port
// (eq. 13), degree-2 continuity on interior path cells (eq. 14), and cover
// every wash target (eq. 15), minimizing path length (the L_wash term of
// eq. 26). Degree constraints alone admit disconnected cycles; the router
// adds lazy connectivity cuts (for a selected cycle component C:
// sum u_c <= |C|-1) and re-solves until the selection is a single path —
// the standard exact completion of the formulation (DESIGN.md §6).
//
// A BFS nearest-port chaining heuristic (the wash-path method of the DAWO
// baseline [10]) is provided both as a fallback and for the ablation bench.
#pragma once

#include <optional>
#include <vector>

#include "arch/chip.h"
#include "arch/path.h"
#include "ilp/types.h"

namespace pdw::core {

struct WashPathStats {
  int ilp_solves = 0;
  int connectivity_cuts = 0;
  bool used_fallback = false;
};

struct WashPathOptions {
  ilp::SolveParams solver;
  /// Cells no wash path may enter (stuck valves / damaged cells reported by
  /// a ScheduleDelta). Hard constraint for BOTH routers on every pass —
  /// unlike foreign devices, which only the restricted pass avoids. Part of
  /// the route-cache key (RouteCache::makeKey), so blocked and unblocked
  /// problems never alias.
  std::vector<arch::Cell> avoid_cells;

  WashPathOptions() {
    solver.time_limit_seconds = 1.5;
    solver.node_limit = 8000;
  }
};

/// Route a wash path covering `targets` on `chip` via the ILP, first over
/// the targets' neighbourhood (their bounding box grown toward the two
/// nearest flow and waste ports, inflated by 2 cells), then over the whole
/// grid; a region above 140 cells is not modelled. The BFS heuristic
/// (routeWashPathHeuristic) always runs as well: the shorter path wins, and
/// when the ILP finds none the heuristic's path is returned and counted as
/// a fallback. nullopt means neither router reached every target.
std::optional<arch::FlowPath> routeWashPathIlp(
    const arch::ChipLayout& chip, const std::vector<arch::Cell>& targets,
    const WashPathOptions& options = {}, WashPathStats* stats = nullptr);

/// BFS heuristic: nearest flow port -> greedy target chain -> nearest waste
/// port (the DAWO baseline's wash-path construction). `avoid_cells` are
/// excluded on every pass.
std::optional<arch::FlowPath> routeWashPathHeuristic(
    const arch::ChipLayout& chip, const std::vector<arch::Cell>& targets,
    const std::vector<arch::Cell>& avoid_cells = {});

}  // namespace pdw::core
