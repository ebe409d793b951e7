// Root cutting planes: Gomory mixed-integer cuts and knapsack-cover cuts.
//
// The separation loop runs once per MIP solve, at the root, before the
// branch-and-bound search starts (DESIGN.md §13). Cuts are derived from the
// root LP optimum, deduplicated through a shared CutPool, materialized as
// ordinary model rows — so the search inherits them for free and its
// warm-start contract is untouched — and aged out by activity before the
// search begins. Within the loop itself the
// engine-side rows are appended incrementally (LpBackend::addCutRows): each
// cut row arrives with its slack basic, the current basis stays
// dual-feasible, and the next round's LP is a warm dual re-solve rather
// than a cold rebuild.
//
// Validity: a Gomory mixed-integer cut derived from a tableau row of the
// engine's optimal basis is satisfied by every integer-feasible point and
// violated by the fractional vertex it was derived from (by exactly the
// fractional part f0 of the basic variable). A cover cut `sum_{j in C} z_j
// <= |C| - 1` is valid whenever the complemented row proves the cover items
// cannot all be 1 simultaneously. Both families only ever remove fractional
// LP points, never integer ones, so the integer-feasible set is unchanged.
// Plans are not: the cuts move the LP bounds, the branching and so the
// incumbent a node- or time-capped search stops at. They changed the plan
// on 7 of the 8 Table-II benchmarks when measured, and skipping the loop
// moves perfbench cold-large's N_wash/L_wash/T_assay sums from
// 68/2532/709.2 to 68/2529/703.3 (ROADMAP items 3-4).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ilp/lp_backend.h"
#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::obs {
class FlightRecorder;
}

namespace pdw::ilp {

enum class CutFamily : std::uint8_t { Gomory, Cover };

/// One cut in model-variable space, normalized to `terms . x <= rhs`.
struct Cut {
  std::vector<std::pair<VarId, double>> terms;  ///< sorted by VarId, merged
  double rhs = 0.0;
  CutFamily family = CutFamily::Gomory;
  /// LHS minus RHS at the LP point the cut was separated from (> 0).
  double violation = 0.0;
};

/// Deduplicating cut pool shared by all separators within one root loop.
/// Identity is the normalized support: term vars plus coefficients and rhs
/// scaled to unit max-magnitude and quantized, so the same cut rederived in
/// a later round (or by both lanes' families) is recognized and dropped.
class CutPool {
 public:
  /// True when the cut is new (and now owned by the pool); false when a
  /// duplicate was already present.
  bool add(const Cut& cut);

  std::size_t size() const { return keys_.size(); }

 private:
  std::vector<std::vector<std::int64_t>> keys_;  ///< sorted normalized keys
};

/// Derive the Gomory mixed-integer cut from an optimal-tableau row of a
/// basic variable with a fractional LP value. `view` is the engine's
/// canonical-space row (LpBackend::tableauRow), and `model` supplies
/// integrality of the columns and the coefficients of the slack rows
/// substituted back out. Returns nullopt when the row yields no usable cut
/// (integral rhs, a free nonbasic with support, or numerics).
std::optional<Cut> gmiCut(const LpBackend::TableauRowView& view,
                          const Model& model);

/// Separate violated minimal-cover cuts from every binary-only inequality
/// row of `model` at LP point `x`, appending them to `out`.
void coverCuts(const Model& model, const std::vector<double>& x,
               std::vector<Cut>* out);

/// Run the root separation loop: solve the root LP of `model` with a fresh
/// backend (under `params`' budgets), alternate (separate -> materialize ->
/// warm re-solve) for at most 8 rounds of at most 32 cuts each, then evict
/// cuts that stayed slack for 2 consecutive rounds. Mutates `model`
/// by appending the surviving cut rows. `check_point`, when non-empty, is a
/// known integer-feasible point used as a validity guard — any candidate
/// cut it violates is discarded. Records one CutAdded flight event per
/// materialized cut into `flight` (may be null).
CutStats separateRootCuts(Model& model, const SolveParams& params,
                          const std::vector<double>& check_point,
                          obs::FlightRecorder* flight);

}  // namespace pdw::ilp
