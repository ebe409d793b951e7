// Sparse revised simplex over a factorized basis — the LP engine behind
// every node LP and pure-LP solve (makeLpBackend).
//
// The engine keeps only the basis factorized (basis_lu.h) and reconstructs
// what a pivot needs on demand — one FTRAN for the entering column, one
// BTRAN for the pivot row — so per-iteration cost tracks the *nonzeros* of
// the model, not its dimensions:
//
//  * Row-wise pricing (pricing.h). The pivot row scatters rho_i * A_i over
//    the rows where rho = e_r^T B^{-1} is nonzero, through a row-wise copy
//    of A, and records the columns it reaches; the ratio test and the
//    reduced-cost update visit only those. Each entry adds its products
//    over ascending rows, as a column-wise dot product does, so every
//    pivot is bit-identical to pricing column by column.
//  * Native bounded-variable columns. Every model variable is exactly one
//    column with its node bounds attached; a nonbasic column sits AtLower /
//    AtUpper / at-value (free). No free-variable splits, no complement
//    flips, no artificial columns reserved per row.
//  * One simplex method. Cold and warm solves run the same dual simplex
//    (dualIterate) with the real costs. A cold solve loads the all-slack
//    basis, where y = 0 and so d_j = c_j, and rests each structural column
//    on the bound that makes its cost dual-feasible: c_j > 0 at its lower
//    bound, c_j < 0 at its upper, c_j = 0 at a finite bound (the lower one
//    first) or free at 0 when it has none. A start that is also primal
//    feasible is optimal as loaded.
//  * Artificial bounds (Koberstein's thesis on the dual simplex, 2005). A
//    cost that pulls a column toward an infinite bound rests it on a finite
//    artificial one (kArtificialBound) instead; a column entering the basis
//    drops it, so only nonbasic columns carry one. An artificial bound never
//    passes for a real one. A dual optimum that rests a column on one with
//    a nonzero reduced cost is Unbounded only when moving every column on
//    an artificial bound outward, at one rate, drives no basic column
//    toward a finite bound; otherwise all artificial bounds move out
//    (about x kArtificialGrowth) and the dual simplex goes on. A row with
//    no entering column proves infeasibility only when no column resting
//    on an artificial bound would help by moving past it; otherwise the
//    bounds move out likewise. A bound that would pass kArtificialCap
//    stops the solve with IterLimit rather than a verdict. Reduced-cost
//    fixing never fixes a column to one. A warm solve that moves a
//    column's bounds replaces its artificial bound with the real ones.
//  * Dual devex pricing. The leaving row maximizes infeasibility^2 / w_i
//    over per-row reference weights, which every pivot updates from the
//    entering column it FTRANs anyway. The weights start at 1 on each cold
//    load and on each cut row, and all reset to 1 once one passes
//    kWeightReset. Past blandThreshold() pivots Bland's rule takes over:
//    the smallest violated row leaves, the smallest-index tie enters.
//  * Periodic refactorization. Product-form eta updates accumulate per
//    pivot; the basis is refactorized every 64 updates, when update()
//    refuses a tiny pivot, and when FTRAN disagrees with the priced pivot
//    row. Each refactorization recomputes the basic values and reduced
//    costs from scratch, re-anchoring float drift.
//  * Wall-clock budget. An LP still iterating once params.time_limit_seconds
//    have passed since the engine was built stops with IterLimit, so one
//    runaway node LP cannot overrun its solve's budget. Every engine has
//    one: branch-and-bound's (every node LP, root included) and solveLp's,
//    each built as its budget starts, so a MIP solve runs on the search's
//    one clock. Every solve checks the budget before each pivot, and a
//    cold solve also checks it before reloading and refactorizing. A stop
//    is not a stall: a warm re-solve it stops returns IterLimit from the
//    warm path (no DualStall event, no cold fallback, so no warm miss). A
//    work-capped solve (time limit far beyond its run) never reaches it.
//
// The warm-start contract (DESIGN.md §11): bound deltas are validated
// before any mutation, aggregated into a single FTRAN against the current
// basis, repaired to dual feasibility by bound flips where possible, then
// re-optimized with the dual simplex; every guard falls back to a cold
// solve deterministically, and every Nth would-be-warm solve runs cold to
// bound drift.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "ilp/basis_lu.h"
#include "ilp/lp_backend.h"
#include "ilp/model.h"
#include "ilp/pricing.h"
#include "ilp/types.h"

namespace pdw::ilp {

class RevisedSimplex final : public LpBackend {
 public:
  /// `model` and `params` must outlive the engine.
  RevisedSimplex(const Model& model, const SolveParams& params);

  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper, bool allow_warm,
                 bool* used_warm = nullptr,
                 std::int64_t* dual_pivots = nullptr) override;
  void collectReducedCostFixes(double gap,
                               std::vector<Fix>* out) const override;
  /// Incremental cut rows: extends both copies of the matrix, the rhs and
  /// slack-bound arrays, adds each new row's slack to the basis (keeping it
  /// valid and dual-feasible) and refactorizes; the next solve()'s
  /// `factorizations` counts that refactorization. A failed refactorization
  /// just clears the warm state — the next solve() runs cold over the
  /// extended row set.
  void addCutRows(const std::vector<CutRow>& rows) override;
  void setFlightRecorder(obs::FlightRecorder* recorder) override {
    flight_ = recorder;
  }

 private:
  static constexpr double kEps = 1e-9;
  /// Dual feasibility tolerance on reduced costs.
  static constexpr double kDualTol = 1e-7;
  /// Primal feasibility tolerance: a basic value this far outside its
  /// bounds makes its row a leaving candidate.
  static constexpr double kFeasibilityTol = 1e-7;
  /// Magnitude of the artificial bound a cold load gives a column whose
  /// cost pulls it toward an infinite bound.
  static constexpr double kArtificialBound = 1e7;
  /// Artificial bounds that turn out to bind move out together, by about
  /// this factor, but never past kArtificialCap in magnitude.
  static constexpr double kArtificialGrowth = 1e3;
  static constexpr double kArtificialCap = 1e15;
  /// A devex weight above this resets every weight to 1.
  static constexpr double kWeightReset = 1e8;
  /// Forced cold refresh cadence: every Nth would-be-warm solve runs cold.
  static constexpr std::int64_t kColdRefreshInterval = 256;
  /// Refactorization cadence in product-form updates.
  static constexpr int kRefactorInterval = 64;

  /// Where a column currently sits. A `Free` nonbasic column rests at its
  /// stored value (0 after a cold load) rather than at a bound.
  enum class VStat : std::uint8_t { Basic, Lower, Upper, Free };
  /// Stalled: the iteration cap was hit, a refactorization failed or an
  /// artificial bound reached kArtificialCap.
  /// OutOfTime: the wall-clock budget ran out (pastDeadline()).
  enum class DualStatus { Optimal, Infeasible, Unbounded, Stalled, OutOfTime };

  std::int64_t blandThreshold() const;
  std::int64_t perRunCap() const;
  bool pastDeadline() const {
    return std::chrono::steady_clock::now() > deadline_;
  }
  /// A valueless result of this call: `status` with its work counters.
  LpResult outcome(LpStatus status) const;
  double cost(int col) const {
    return col < n_ ? cost_[static_cast<std::size_t>(col)] : 0.0;
  }
  bool fixedCol(int col) const {
    return ub_[static_cast<std::size_t>(col)] -
               lb_[static_cast<std::size_t>(col)] <
           kEps;
  }
  /// Artificial bounds are the only engine bounds that differ from the
  /// loaded model-space ones (cur_lower_, cur_upper_), and only structural
  /// columns get them.
  bool artificialLower(int col) const {
    return col < n_ && lb_[static_cast<std::size_t>(col)] !=
                           cur_lower_[static_cast<std::size_t>(col)];
  }
  bool artificialUpper(int col) const {
    return col < n_ && ub_[static_cast<std::size_t>(col)] !=
                           cur_upper_[static_cast<std::size_t>(col)];
  }
  bool restsOnArtificialBound(int col) const {
    const VStat s = vstat_[static_cast<std::size_t>(col)];
    return (s == VStat::Lower && artificialLower(col)) ||
           (s == VStat::Upper && artificialUpper(col));
  }

  /// Sparse entries of column `col` (structural via CSC, slack = unit).
  void columnEntries(int col, BasisLu::SparseColumn* out) const;
  /// alpha = B^{-1} A_col, dense by basis position.
  void ftranColumn(int col, std::vector<double>* alpha) const;
  /// rho = e_pos^T B^{-1} by BTRAN, then pricer_ prices rho^T [A | I]:
  /// callers read only nonbasic entries of pricer_.row(), and the ratio
  /// test and reduced-cost update only pricer_.candidates().
  void pivotRow(int pos, std::vector<double>* rho);

  /// Refactorize the current basis and recompute x_B and reduced costs from
  /// scratch. Returns false when the basis is numerically singular.
  bool refactor();
  void computeBasicValues();
  void computeDuals();

  void loadCold(const std::vector<double>& lower,
                const std::vector<double>& upper);
  LpResult runCold(const std::vector<double>& lower,
                   const std::vector<double>& upper);
  std::optional<LpResult> warmSolve(const std::vector<double>& lower,
                                    const std::vector<double>& upper);

  /// Dual simplex from a dual-feasible basis to primal feasibility, at
  /// most `cap` pivots.
  DualStatus dualIterate(std::int64_t cap);
  /// widen_ = every column resting on an artificial bound.
  void collectArtificial();
  /// Plans moving every column of widen_, with its bound, outward by
  /// widen_step_: kArtificialGrowth - 1 times the largest magnitude among
  /// them. alpha_ gets B^{-1} times the sum of the columns' outward unit
  /// moves. False when a bound would pass kArtificialCap.
  bool planWidening();
  /// True when the planned move, or any positive multiple of it, drives
  /// some basic column toward a finite bound.
  bool rayBlocked() const;
  /// Carries out the planned move, basic values included.
  void applyWidening();
  /// The Optimal result of a dual run; the engine becomes warm-ready.
  LpResult optimalResult();

  std::vector<double> extractValues() const;

  const Model& model_;
  const SolveParams& params_;
  Csc csc_;
  Csr csr_;  ///< row-wise copy of csc_, kept in step by addCutRows
  /// Construction time + params.time_limit_seconds (max() when unbounded).
  std::chrono::steady_clock::time_point deadline_;

  int n_ = 0;      ///< structural columns (model variables)
  int m_ = 0;      ///< rows (== slack columns); slack of row i is column n_+i
  int total_ = 0;  ///< n_ + m_

  std::vector<double> cost_;  ///< structural objective (merged duplicates)
  std::vector<double> rhs_;
  std::vector<double> slack_lb_, slack_ub_;  ///< per-row, from the sense

  // ---- per-load state ----------------------------------------------------
  std::vector<double> lb_, ub_;  ///< per column
  std::vector<VStat> vstat_;
  std::vector<double> x_;  ///< per column value (exact bounds when nonbasic)
  std::vector<double> d_;  ///< reduced costs (0 on basic columns)
  std::vector<int> basis_;   ///< position -> column
  std::vector<int> pos_of_;  ///< column -> position, -1 when nonbasic
  std::vector<double> weight_;  ///< dual devex weights, by basis position
  /// Model-space bounds of the last load; warm solves diff against these.
  std::vector<double> cur_lower_, cur_upper_;

  BasisLu lu_;

  bool ready_ = false;
  std::int64_t call_iterations_ = 0;
  /// Factorizations since the last solve() returned, so an addCutRows()
  /// refactorization is reported by the re-solve after it.
  std::int64_t call_factorizations_ = 0;
  std::int64_t warm_since_cold_ = 0;
  obs::FlightRecorder* flight_ = nullptr;  ///< not owned; may be null

  // scratch
  std::vector<double> alpha_, rho_;
  PivotRowPricer pricer_;
  std::vector<BasisLu::SparseColumn> basis_cols_;  ///< refactor()'s gather
  std::vector<int> widen_;  ///< columns resting on artificial bounds
  double widen_step_ = 0.0;  ///< planWidening()'s outward step
  bool widened_ = false;  ///< an artificial bound moved since the cold load
};

}  // namespace pdw::ilp
