// Standalone LP solve entry point.
//
// This is the pure-LP front door of the solver stack (the reproduction's
// substitute for Gurobi, see DESIGN.md §2). It routes one cold solve
// through the LpBackend seam (lp_backend.h, DESIGN.md §12), so the same
// sparse revised simplex serves pure LPs and node LPs alike, and no solve
// bypasses the obs instrumentation. (Lazy rows, which the wash-path ILP's
// connectivity cuts use, belong to the MIP search: see branch_bound.h.)
#pragma once

#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::ilp {

/// Solve the LP relaxation of `model` (variable types are ignored) over its
/// own variable bounds with one cold solve of makeLpBackend()
/// (lp_backend.h). The solve stops with IterLimit once
/// params.time_limit_seconds have passed (the engine's wall-clock budget,
/// revised_simplex.h). LpStatus and LpResult live in ilp/types.h.
LpResult solveLp(const Model& model, const SolveParams& params);

}  // namespace pdw::ilp
