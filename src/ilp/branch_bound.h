// Branch-and-bound MILP solver over the simplex LP engine.
//
// Best-bound node selection with fractional branching; bound changes are
// stored as per-node diffs so node creation is O(1). The solver is a
// best-effort engine (time / node / iteration limits) exactly like the
// paper's 15-minute-capped Gurobi runs: the incumbent at the limit is
// returned with status Feasible.
//
// Lazy rows (DESIGN.md §2): the caller may pass a callback that sees every
// rounded integral point about to become the incumbent, the warm start
// included, and rejects it by returning rows the point violates. The rows
// join the search's model copy and its engine in step (through
// LpBackend::addCutRows) and stay for the rest of the search; the rejected
// node is re-solved warm at once. The wash-path ILP enforces its
// connectivity cuts this way, where a Gurobi model would use lazy
// constraints.
#pragma once

#include <functional>
#include <vector>

#include "ilp/lp_backend.h"
#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::ilp {

/// Lazy-row callback: empty to accept `point`, otherwise rows `point`
/// violates. A callback that returns rows the point satisfies sees the same
/// point again; the node budget bounds that loop.
using LazyRows = std::function<std::vector<LpBackend::CutRow>(
    const std::vector<double>& point)>;

/// Solve `model` as a mixed-integer program, without presolve (solve() in
/// solver.h is presolve + solveMip). `model` is the search's own copy, the
/// one lazy rows extend; solve() moves its presolved copy in. Pure-LP
/// models without lazy rows are delegated to the simplex directly.
Solution solveMip(Model model, const SolveParams& params,
                  const LazyRows& lazy = {});

}  // namespace pdw::ilp
