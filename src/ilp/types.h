// Common vocabulary types for the ILP subsystem.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/flight.h"

namespace pdw::ilp {

/// Index of a decision variable inside a Model.
using VarId = int;

/// Index of a linear constraint inside a Model.
using ConstraintId = int;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType {
  Continuous,
  Integer,
  Binary,  ///< integer with implicit bounds [0, 1]
};

/// Constraint comparison sense: expr (sense) rhs.
enum class Sense {
  LessEqual,
  GreaterEqual,
  Equal,
};

enum class SolveStatus {
  Optimal,       ///< proven optimal (within tolerances)
  Feasible,      ///< feasible incumbent found, optimality not proven (limits)
  Infeasible,    ///< proven infeasible
  Unbounded,     ///< LP relaxation unbounded below
  IterLimit,     ///< simplex iteration cap hit without conclusion
  NodeLimit,     ///< branch-and-bound node cap hit without incumbent
  TimeLimit,     ///< wall-clock limit hit without incumbent
  Error,         ///< internal numerical failure
};

const char* toString(SolveStatus status);
const char* toString(Sense sense);

/// Outcome of one LP (relaxation) solve, shared by every LpBackend.
enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
};

struct LpResult {
  LpStatus status = LpStatus::IterLimit;
  double objective = 0.0;
  /// One value per model variable (integrality ignored).
  std::vector<double> values;
  std::int64_t iterations = 0;
  /// Basis (re)factorizations performed during this call, plus the one an
  /// addCutRows() since the previous call performed.
  std::int64_t factorizations = 0;
};

/// Search/solve statistics, filled by the solver.
struct SolveStats {
  std::int64_t simplex_iterations = 0;
  std::int64_t nodes_explored = 0;
  double best_bound = -kInfinity;  ///< proven lower bound (minimization)
  double wall_seconds = 0.0;
  /// Rows the lazy-row callback (branch_bound.h) returned to reject
  /// integral points.
  std::int64_t lazy_rows = 0;
  /// Node LPs run by the in-tree simplex engine (root + children).
  std::int64_t lp_solves = 0;
  /// Non-root node LPs re-optimized warm from the engine's current basis
  /// vs. those that fell back to a cold solve from the slack basis.
  std::int64_t warm_hits = 0;
  std::int64_t warm_misses = 0;
  /// Pivots of warm re-solves (a subset of `simplex_iterations`, which also
  /// counts the pivots of cold solves).
  std::int64_t dual_pivots = 0;
  /// Integer variables fixed by reduced-cost bound tightening.
  std::int64_t rc_fixed = 0;
  /// Sparse-basis (re)factorizations across all node LPs.
  std::int64_t refactorizations = 0;

  /// Fold another solve's work in (e.g. a pinned re-solve into phase A of one
  /// schedule): sums every counter and the wall time. best_bound is a
  /// per-solve reading and keeps this side's value.
  SolveStats& operator+=(const SolveStats& other) {
    simplex_iterations += other.simplex_iterations;
    nodes_explored += other.nodes_explored;
    wall_seconds += other.wall_seconds;
    lazy_rows += other.lazy_rows;
    lp_solves += other.lp_solves;
    warm_hits += other.warm_hits;
    warm_misses += other.warm_misses;
    dual_pivots += other.dual_pivots;
    rc_fixed += other.rc_fixed;
    refactorizations += other.refactorizations;
    return *this;
  }
};

/// Result of solving a Model. `values` is indexed by VarId of the *original*
/// model (presolve-eliminated variables are filled back in).
struct Solution {
  SolveStatus status = SolveStatus::Error;
  double objective = 0.0;
  std::vector<double> values;
  SolveStats stats;

  bool hasSolution() const {
    return status == SolveStatus::Optimal || status == SolveStatus::Feasible;
  }
  /// Checked: `values` is empty unless hasSolution(), so reading a
  /// variable of an infeasible, limit-stopped or cut-off solve throws
  /// std::out_of_range instead of reading past the end.
  double value(VarId v) const {
    return values.at(static_cast<std::size_t>(v));
  }
  /// Convenience for 0-1 variables: value rounded to bool.
  bool boolValue(VarId v) const { return value(v) > 0.5; }
};

/// Integrality tolerance: a value within this distance of an integer
/// counts as integral (branching, incumbents, reduced-cost fixing).
inline constexpr double kIntegralityTol = 1e-6;

/// Knobs for the solver: the three budgets plus the per-call inputs
/// (warm start, objective cutoff, flight recorder) and one test hook. Every
/// tolerance, the MIP gap, presolve, probing and coefficient tightening are
/// fixed (named constants in the files that use them): like the paper's
/// Gurobi runs, a solve is configured by its budget alone.
struct SolveParams {
  /// Wall-clock budget. A MIP solve has one clock: branch-and-bound counts
  /// the limit from its start, and its LP engine, built right after, stops
  /// a node LP with IterLimit once the limit has passed (revised_simplex.h).
  /// Only presolve runs before that clock starts, and work constants bound
  /// it. solveLp's engine counts the limit from its own construction.
  double time_limit_seconds = 10.0;
  std::int64_t node_limit = 200000;
  std::int64_t simplex_iteration_limit = 400000;
  /// Optional warm start (one value per model variable). If it is feasible
  /// it seeds the branch-and-bound incumbent, so the solver never returns
  /// anything worse than this point (the paper's "best-effort within the
  /// time limit" semantics).
  std::vector<double> warm_start;
  /// Optional objective cutoff, a per-call input like `warm_start`, not a
  /// budget: branch-and-bound prunes every node whose bound exceeds it
  /// (ties kept), so the search looks only for points no worse than the
  /// cutoff, and a warm start above it is ignored. Until the search without
  /// the cutoff would find its first incumbent, both explore the same nodes
  /// in the same order; a search that exhausts the nodes at or below the
  /// cutoff reports Infeasible. +inf (the default) prunes nothing. The
  /// wash-path router passes its simple-path heuristic's length here.
  double objective_cutoff = kInfinity;
  /// Iteration count after which pricing switches to Bland's rule inside one
  /// LP solve (anti-cycling). 0 = automatic (scales with model size); tests
  /// set 1 to exercise the Bland path directly.
  std::int64_t bland_iteration_override = 0;
  /// Flight recorder (obs/flight.h): when `flight.enabled`, every
  /// branch-and-bound solve records structured search events into a bounded
  /// ring and dumps them as `pdw-flight-1` JSONL per the config's triggers
  /// (explicit path, budget-capped solve, slow solve). Off by default —
  /// disabled solves pay one null check per event site.
  obs::FlightConfig flight;
  /// Does nothing; kept only so perfbench/pdw_perfbench.cpp still builds.
  int portfolio_threads = 1;
};

/// Compact one-line description of the budgets, the only solver knobs that
/// affect results ("tl=4 nodes=60000 iters=400000"), stamped into
/// `pdw-run-1` records so stored runs are only compared within one
/// configuration. Defined in solver.cpp.
std::string fingerprint(const SolveParams& params);

}  // namespace pdw::ilp
