// The order search that follows phase A of the scheduling MILP
// (DESIGN.md §7).
//
// Fix every integer variable of the schedule model — the order binaries of
// eqs. 3/8/19/20 and the psi integration binaries of eqs. 7/21 — and each
// row reads x_b >= x_a + c over two start variables, or bounds one start.
// The starts keep their bounds [release, horizon]. The least point of such
// a system of difference constraints is the longest-path solution from the
// bounds, and it minimizes every start at once, so it is the optimum of the
// pinned LP (the objective's one continuous term is gamma * T_assay). A
// positive cycle, or a start past its upper bound, means the fixed integers
// admit no schedule. One longest-path pass therefore scores a fixed order
// exactly, with no LP solve.
//
// searchOrders improves phase A's incumbent by flipping order binaries.
// Only a binary whose active row is tight on a T_assay-critical path can
// shorten T_assay when flipped alone, so only those are tried: every 1-flip
// first, then 2-flips. A trial keeps psi at the incumbent's values. An
// order that scores a lower T_assay is re-solved once as phase A's pinned
// MILP (psi free), warm-started from the trial, and replaces the incumbent
// only if the objective falls and T_assay does not rise.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "ilp/model.h"
#include "ilp/types.h"

namespace pdw::core {

/// The rows of a MILP read as difference constraints over its continuous
/// variables once its integer variables are fixed. Not thread-safe: one
/// instance serves one search (it keeps per-call scratch).
class DifferenceConstraints {
 public:
  explicit DifferenceConstraints(const ilp::Model& model);

  /// False when some row is not a difference constraint with the integers
  /// fixed: a continuous coefficient other than +1/-1, or a continuous part
  /// other than x_b - x_a, x or -x.
  bool supported() const { return supported_; }

  /// The least point with every integer variable at its value in `values`:
  /// writes every continuous entry of `values` and returns true, or returns
  /// false when the fixed integers admit no point (a positive cycle, a
  /// value past its upper bound, a violated all-integer row). The
  /// continuous entries on input only order the longest-path pass.
  bool earliest(std::vector<double>& values) const;

  /// A lower bound on every continuous variable over all feasible points:
  /// the least point with each row at its weakest over its integer
  /// variables' bounds (so every big-M row is dropped, and an integrable
  /// removal lasts zero seconds). Entries of integer variables are 0.
  std::vector<double> relaxedEarliest() const;

  /// Integer variables (ascending, unique) that appear in a row tight on a
  /// longest path to `sink` at `values`, a point earliest() returned.
  std::vector<ilp::VarId> criticalIntegers(const std::vector<double>& values,
                                           ilp::VarId sink) const;

 private:
  /// x_to >= x_from + c - sum(coef * integer value) over its terms; a
  /// missing `from` (-1) bounds `to` below, a missing `to` bounds `from`
  /// above (x_from <= -weight), and an edge with neither is an all-integer
  /// row that holds iff its weight is <= 0.
  struct Edge {
    int from = -1;
    int to = -1;
    double c = 0.0;
    std::uint32_t terms_begin = 0;
    std::uint32_t terms_end = 0;
  };

  void addRow(const ilp::LinExpr& expr, double rhs, double sign);
  void computeWeights(const std::vector<double>& values, bool relaxed) const;
  /// Longest-path pass over the current weights, from each variable's lower
  /// bound, processing variables in `order_` first. False on infeasibility.
  bool propagate(std::vector<double>& values) const;
  void sortByValue(const std::vector<double>& values) const;

  int num_vars_ = 0;
  bool supported_ = true;
  std::vector<char> is_integer_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Edge> edges_;
  std::vector<std::pair<ilp::VarId, double>> terms_;
  /// Compressed out- and in-edge lists of every variable (edge ids).
  std::vector<int> out_start_, out_edges_;
  std::vector<int> in_start_, in_edges_;
  /// Edges without a head or a tail (bounds, all-integer rows).
  std::vector<int> loose_edges_;
  std::vector<ilp::VarId> continuous_;

  mutable std::vector<double> weight_;
  mutable std::vector<ilp::VarId> order_;
  mutable std::vector<int> queue_;
  mutable std::vector<char> queued_;
  mutable std::vector<int> pops_;
  mutable std::vector<double> tail_;
};

/// Why the order search stopped.
enum class OrderSearchStop {
  NotRun,        ///< repair mode, or phase A found no schedule
  LocalOptimum,  ///< no 1- or 2-flip of a critical order improves
  TrialBudget,   ///< trials reached the schedule budget's node_limit
  Time,          ///< the schedule budget's time limit passed
};

struct OrderSearchResult {
  /// The incumbent when the search stopped: `start` or an improvement.
  ilp::Solution best;
  int trials = 0;  ///< fixed orders scored by a longest-path pass
  int flips = 0;   ///< accepted 1- and 2-flips
  OrderSearchStop stop = OrderSearchStop::NotRun;
  /// Some pinned re-solve ended other than Optimal.
  bool resolve_budget_hit = false;
  /// Work of the pinned re-solves.
  ilp::SolveStats stats;
};

/// Search the orders of `model` from `start`, a feasible solution of it.
/// `orders` are its order binaries; every other integer variable keeps its
/// value in trials. `graph` is the difference-constraint view of `model`.
/// Each trial counts one against `budget.node_limit`; no trial starts after
/// `deadline`, and each re-solve runs under `budget` with the time left.
OrderSearchResult searchOrders(
    const ilp::Model& model, const DifferenceConstraints& graph,
    const std::vector<ilp::VarId>& orders, ilp::VarId t_assay,
    const ilp::Solution& start, const ilp::SolveParams& budget,
    std::chrono::steady_clock::time_point deadline);

}  // namespace pdw::core
