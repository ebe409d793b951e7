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
// Several targets bound the ILP with H, a simple-path heuristic: per pass,
// flow port -> every target -> waste port, each leg a BFS shortest path that
// neither enters nor touches the cells already placed, so H is a feasible
// point of the pass's model. Its length is the search's objective cutoff
// (ilp::SolveParams::objective_cutoff), and H answers when the search finds
// nothing within it (DESIGN.md §6).
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
#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::core {

struct WashPathStats {
  int ilp_solves = 0;         ///< path-ILP searches: at most one per pass,
                              ///< none for one target
  int connectivity_cuts = 0;  ///< lazy rows those searches added
  bool used_heuristic = false;  ///< H answered (several targets)
  bool used_fallback = false;   ///< the BFS heuristic answered: no simple
                                ///< path came back
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
/// Several targets: up to two passes, first over the targets'
/// neighbourhood (their bounding box grown toward the two nearest flow and
/// waste ports, inflated by 2 cells, foreign devices excluded), then over
/// the whole grid. Each pass first builds H, the simple-path heuristic over
/// the pass's cells (see washPathPass), then runs one ILP search under
/// `options.solver`'s budgets with H's length as its objective cutoff, so
/// it looks only for paths no longer than H. The pass's answer is the ILP's
/// path when the search finds one, otherwise H; a region above 140 cells
/// runs no ILP, so H answers alone. The whole-grid pass runs only when the
/// restricted pass has neither. The BFS heuristic (routeWashPathHeuristic)
/// always runs as well: its path wins when strictly shorter, and it is
/// returned, counted as a fallback, only when no pass has a path. H depends
/// only on the chip, the target set and `options.avoid_cells`, the inputs
/// the route-cache key already holds, so the key needs no field for it.
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

/// One routing pass of a multi-target operation, for tests: the cells it
/// may use (the targets' neighbourhood without foreign devices, or with
/// `whole_grid` the whole grid; ports and `avoid_cells` never), H over them
/// (nullopt when no build covers every target), and the pass's eqs. 12-15
/// model with the point H selects in it (empty without H). The model holds
/// every cell of the pass, however many; routing skips the ILP above 140.
struct WashPathPass {
  std::vector<arch::Cell> cells;
  std::optional<arch::FlowPath> heuristic;
  ilp::Model model;
  std::vector<double> heuristic_point;
};
WashPathPass washPathPass(const arch::ChipLayout& chip,
                          const std::vector<arch::Cell>& targets,
                          bool whole_grid,
                          const std::vector<arch::Cell>& avoid_cells = {});

/// BFS heuristic: nearest flow port -> greedy target chain -> nearest waste
/// port (the DAWO baseline's wash-path construction). `avoid_cells` are
/// excluded on every pass.
std::optional<arch::FlowPath> routeWashPathHeuristic(
    const arch::ChipLayout& chip, const std::vector<arch::Cell>& targets,
    const std::vector<arch::Cell>& avoid_cells = {});

}  // namespace pdw::core
