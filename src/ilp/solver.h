// Public entry point of the ILP subsystem.
//
// Usage (mirrors how src/core builds the paper's formulations):
//
//   ilp::Model m;
//   auto t_start = m.addContinuous(0, 1e4, "t_s");
//   auto order = m.addBinary("kappa");
//   m.addGreaterEqual(LinExpr(t_start) + (1.0 - LinExpr(order)) * bigM, ...);
//   m.setObjective(0.4 * LinExpr(t_assay) + ...);
//   ilp::Solution sol = ilp::solve(m, params);
#pragma once

#include "ilp/branch_bound.h"
#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::ilp {

/// Solve `model` (LP or MILP): presolve (presolve.h) a copy, then run
/// solveMip (branch_bound.h) on it with the lazy-row callback `lazy`, so
/// `model` is never mutated.
Solution solve(const Model& model, const SolveParams& params = {},
               const LazyRows& lazy = {});

}  // namespace pdw::ilp
