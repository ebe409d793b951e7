// Bound-propagation presolve with probing and coefficient strengthening.
//
// Three reductions, none of which removes an integer-feasible point:
//
//  * Activity propagation — tightens variable bounds from constraint
//    activity intervals to a fixpoint, then drops rows the final bounds
//    prove redundant (the original presolve).
//  * Coefficient strengthening — for a binary variable in an inequality
//    whose activity bounds show slack when the variable is at its loose
//    setting, the big-M coefficient (and rhs) shrink to the smallest values
//    that admit exactly the same 0/1 behaviour. The LP relaxation tightens;
//    the integer solution set is untouched. This is the classic big-M taming
//    step for the paper's scheduling rows (eqs. 2/3/8/19/20).
//  * Probing — tentatively fix each binary to 0 and to 1, propagate each
//    fixing to a local fixpoint, and harvest: a fixing whose propagation is
//    infeasible fixes the variable the *other* way permanently; when both
//    sides survive, every other variable's bounds can be relaxed-joined
//    across the two branches (min of lowers / max of uppers), which often
//    tightens them globally.
//
// All three shrink the branch-and-bound tree and the standard form every
// node LP pivots on; the reduced model has exactly the same solution set.
#pragma once

#include "ilp/model.h"

namespace pdw::ilp {

struct PresolveOptions {
  double feasibility_tol = 1e-7;
  int max_rounds = 10;
  /// Enable the probing pass (always on in ilp::solve; tests switch it off
  /// to isolate the other reductions).
  bool probing = true;
  /// Enable big-M coefficient strengthening (always on in ilp::solve).
  bool coef_tightening = true;
  /// Probing work cap: maximum binaries probed (both directions each).
  /// <= 0 disables the cap.
  int probe_var_limit = 2000;
  /// Per-probe propagation cap in row relaxations (worklist pops).
  int probe_row_limit = 20000;
};

struct PresolveResult {
  bool infeasible = false;
  int bounds_tightened = 0;
  int rows_removed = 0;
  int rounds = 0;
  /// Coefficients (and their rhs) shrunk by coefficient strengthening.
  int coefficients_tightened = 0;
  /// Binaries permanently fixed because one probe direction was infeasible.
  int probed_fixings = 0;
  /// Bounds tightened by joining the two probe branches.
  int probed_bounds = 0;
};

/// Tighten bounds, strengthen coefficients, probe binaries and drop
/// redundant rows in place. Returns infeasible=true when any step proves
/// the model unsatisfiable.
PresolveResult presolve(Model& model, const PresolveOptions& options);

/// Back-compat convenience overload (activity propagation defaults).
PresolveResult presolve(Model& model, double feasibility_tol = 1e-7,
                        int max_rounds = 10);

}  // namespace pdw::ilp
