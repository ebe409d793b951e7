// Test-only oracles for the ILP layer.
//
// referenceLp() is a dense two-phase tableau simplex with Bland's
// anti-cycling rule, written to be checked by eye rather than to be fast.
// It shares no code with the production engine (ilp/revised_simplex.h), so
// the two agreeing is evidence about both. It is cold-only and reports
// status and objective, nothing else: no warm start, no reduced-cost
// fixing, no tableau rows. It is itself checked against brute-force vertex
// enumeration on tiny boxed LPs (test_reference_lp.cpp).
//
// enumerateIntegerOptimum() brute-forces a tiny pure-integer model.
#pragma once

#include <optional>
#include <vector>

#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::ilp::reference {

struct LpOutcome {
  LpStatus status = LpStatus::IterLimit;  ///< IterLimit only on a runaway
  double objective = 0.0;
};

/// Minimize the model's objective over its rows with x in [lower, upper]
/// (variable types ignored; bounds may be infinite, lower > upper is
/// infeasible).
LpOutcome referenceLp(const Model& model, const std::vector<double>& lower,
                      const std::vector<double>& upper);

/// The same over the model's own bounds.
LpOutcome referenceLp(const Model& model);

/// Optimum of a pure-integer model with finite bounds, by checking every
/// integer point of the box; nullopt when none is feasible. Exponential in
/// the variable count — tiny models only.
std::optional<double> enumerateIntegerOptimum(const Model& model);

}  // namespace pdw::ilp::reference
