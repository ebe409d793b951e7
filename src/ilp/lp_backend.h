// The LP backend seam.
//
// Branch-and-bound and the standalone `ilp::solve` LP path both talk to
// this interface rather than to the concrete engine, the sparse revised
// simplex (revised_simplex.h): CSC storage, Markowitz LU with product-form
// updates and periodic refactorization, native bounded-variable columns,
// and one dual simplex with devex pricing for cold solves and warm
// re-solves alike. Every solve builds it through
// makeLpBackend(); the interface exists so tests can wrap the production
// engine (substituteLpBackendForTesting) and check its node LPs against an
// independent reference. It has four methods, each with a program caller:
// solve (cold or warm), collectReducedCostFixes, addCutRows and
// setFlightRecorder.
//
// The warm-start contract (DESIGN.md §11): `solve` with `allow_warm`
// re-optimizes with the dual simplex from the engine's current basis after
// the caller's bound deltas, falls back to a cold solve deterministically,
// and exposes reduced-cost fixing at the node optimum. Backends are
// stateful and single-threaded by design — one instance per
// branch-and-bound search.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ilp/types.h"

namespace pdw::obs {
class FlightRecorder;
}

namespace pdw::ilp {

class Model;

class LpBackend {
 public:
  /// A reduced-cost bound fixing: `var` provably sits at `value` in every
  /// improving solution of the current subtree.
  struct Fix {
    VarId var = -1;
    double value = 0.0;
  };

  /// A cut row to append to the engine: `terms . x (sense) rhs`. Terms are
  /// sorted by VarId with duplicates merged (LinExpr discipline).
  struct CutRow {
    std::vector<std::pair<VarId, double>> terms;
    Sense sense = Sense::LessEqual;
    double rhs = 0.0;
  };

  virtual ~LpBackend() = default;

  /// Solve the LP with the given bounds. When `allow_warm` and the backend
  /// holds a usable dual-feasible state, re-optimizes with the dual simplex
  /// (setting *used_warm); otherwise runs a cold solve from scratch, which
  /// also resets the warm state. Either path returns the same
  /// status/objective (the warm path is exact, not approximate).
  /// `dual_pivots` receives the dual pivots of this call.
  virtual LpResult solve(const std::vector<double>& lower,
                         const std::vector<double>& upper, bool allow_warm,
                         bool* used_warm = nullptr,
                         std::int64_t* dual_pivots = nullptr) = 0;

  /// Reduced-cost fixings at the current optimum: every nonbasic integer
  /// variable, integral within kIntegralityTol, whose reduced cost exceeds
  /// `gap` (incumbent objective minus this LP's objective) by a safety
  /// margin. Only valid immediately after a solve that returned Optimal.
  virtual void collectReducedCostFixes(double gap,
                                       std::vector<Fix>* out) const = 0;

  /// Append cut rows to the engine without rebuilding it: each row arrives
  /// with its slack basic, so the current basis stays valid and
  /// dual-feasible and the next `solve(..., allow_warm=true)` re-optimizes
  /// with the dual simplex from it. Branch-and-bound's lazy rows append
  /// this way.
  virtual void addCutRows(const std::vector<CutRow>& rows) = 0;

  /// Attach a flight recorder (obs/flight.h) owned by the calling lane; the
  /// backend records engine-level events (refactorizations, degenerate-pivot
  /// stalls) into it. nullptr (the default) disables recording. The recorder
  /// must outlive the backend or be detached before destruction.
  virtual void setFlightRecorder(obs::FlightRecorder* recorder) = 0;
};

/// The LP engine every solve uses: the sparse revised simplex, unless a
/// test substituted a factory. `model` and `params` must outlive it.
std::unique_ptr<LpBackend> makeLpBackend(const Model& model,
                                         const SolveParams& params);

/// Test-only hook: while `factory` is non-null, makeLpBackend() returns
/// `factory(model, params)` instead of the revised simplex, in every
/// thread. Returns the previous factory so a test can restore it.
using LpBackendFactory = std::unique_ptr<LpBackend> (*)(
    const Model& model, const SolveParams& params);
LpBackendFactory substituteLpBackendForTesting(LpBackendFactory factory);

}  // namespace pdw::ilp
