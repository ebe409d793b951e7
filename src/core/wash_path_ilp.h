// Wash-path routing.
//
// ILP formulation of paper eqs. 12-15: choose one flow port and one waste
// port (eq. 12), exactly one path cell adjacent to each chosen port
// (eq. 13), degree-2 continuity on interior path cells (eq. 14), and cover
// every wash target (eq. 15), minimizing path length (the L_wash term of
// eq. 26). Degree constraints alone admit disconnected cycles; the router
// enforces connectivity with lazy rows of the search (ilp::LazyRows): an
// integral point with selected cycle components is rejected with
// sum_{c in C} u_c <= |C|-1 for each such component C, and branch-and-bound
// re-solves the node with those rows kept. One search per pass returns a
// single path — the standard exact completion of the formulation
// (DESIGN.md §6).
//
// One target builds no ILP. Its shortest simple flow port -> target -> waste
// port path is two vertex-disjoint paths out of the target: one min-cost
// flow on the node-split cell graph (Suurballe & Tarjan, Networks 1984),
// exact in polynomial time (DESIGN.md §6).
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
  int ilp_solves = 0;         ///< path-ILP searches: at most one per pass,
                              ///< none for one target
  int connectivity_cuts = 0;  ///< lazy rows those searches added
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

/// Route a wash path covering `targets` on `chip`.
///
/// One target: a min-cost flow sends two units out of the target over the
/// node-split cell graph (every cell capacity 1, cost 1), one into a sink
/// fed by the cells next to usable flow ports and one into a sink fed by
/// the cells next to usable waste ports; the two legs read back as
/// flow port -> ... -> target -> ... -> waste port, the shortest simple
/// path. It runs the BFS heuristic's two passes over the whole grid (no
/// region, no cell cap): ports, blocked cells and foreign devices excluded,
/// then idle devices admitted. Ties break by cell index, so the path is the
/// same on every call. No ILP runs; only when neither pass has a simple
/// path does the BFS heuristic's path come back, counted as a fallback.
///
/// Several targets: the ILP, first over the targets' neighbourhood (their
/// bounding box grown toward the two nearest flow and waste ports, inflated
/// by 2 cells), then over the whole grid; a region above 140 cells is not
/// modelled. Each pass is one search under `options.solver`'s budgets, so a
/// call spends at most two. The BFS heuristic (routeWashPathHeuristic)
/// always runs as well: the shorter path wins, and when the ILP finds none
/// the heuristic's path is returned and counted as a fallback.
///
/// nullopt means no router reached every target.
std::optional<arch::FlowPath> routeWashPathIlp(
    const arch::ChipLayout& chip, const std::vector<arch::Cell>& targets,
    const WashPathOptions& options = {}, WashPathStats* stats = nullptr);

/// The cell sets whose connectivity cuts reject a path-ILP point selecting
/// `selected`, with its endpoint markers on `flow_end` and `waste_end`:
/// every selected component the walk from `flow_end` does not reach (each a
/// cycle under eq. 14), or the whole selection should that walk stall short
/// of `waste_end`. Empty when the selection is one path. The router rejects
/// a point with one row sum_{c in C} u_c <= |C|-1 per set C.
std::vector<std::vector<arch::Cell>> connectivityCutSets(
    const arch::ChipLayout& chip, const std::vector<arch::Cell>& selected,
    arch::Cell flow_end, arch::Cell waste_end);

/// BFS heuristic: nearest flow port -> greedy target chain -> nearest waste
/// port (the DAWO baseline's wash-path construction). `avoid_cells` are
/// excluded on every pass.
std::optional<arch::FlowPath> routeWashPathHeuristic(
    const arch::ChipLayout& chip, const std::vector<arch::Cell>& targets,
    const std::vector<arch::Cell>& avoid_cells = {});

}  // namespace pdw::core
