// Branch-and-bound MILP solver over the simplex LP engine.
//
// Best-bound node selection with fractional branching; bound changes are
// stored as per-node diffs so node creation is O(1). The solver is a
// best-effort engine (time / node / iteration limits) exactly like the
// paper's 15-minute-capped Gurobi runs: the incumbent at the limit is
// returned with status Feasible.
#pragma once

#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::ilp {

/// Solve `model` as a mixed-integer program, without presolve (solve() in
/// solver.h is presolve + solveMip). Pure-LP models are delegated to the
/// simplex directly.
Solution solveMip(const Model& model, const SolveParams& params);

}  // namespace pdw::ilp
