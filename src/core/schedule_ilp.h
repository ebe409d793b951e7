// The PDW scheduling ILP (paper §III, eqs. 1-26).
//
// Given the base schedule (operations + fluidic tasks with fixed paths and
// durations) and the routed wash operations, recompute every start time so
// that washes execute inside their contamination windows, conflicts are
// serialized via big-M disjunctions, excess removals may be integrated into
// covering washes (psi variables, eqs. 7/21), and the weighted objective
// alpha*N_wash + beta*L_wash + gamma*T_assay (eq. 26) is minimized —
// N_wash and L_wash are constants once necessity analysis and path routing
// have run, so the variable part is gamma*T_assay (minus a small integration
// reward to break ties toward psi=1).
//
// Windowed ordering pruning (DESIGN.md §7): an order binary is created only
// for conflicting pairs whose base-schedule intervals are within
// `order_horizon_s` of each other; pairs farther apart keep their base
// order as a fixed constraint.
//
// The solve (DESIGN.md §7): phase A pins every order binary to the order
// of the greedy insertion (wash::rescheduleWithWashes), which also seeds
// the warm start, and solves the remaining MILP (starts plus psi) under
// the whole schedule budget. The order search (order_search.h) then flips
// order binaries on the T_assay-critical path, scoring each fixed order by
// one longest-path pass, and re-solves each improving order once as phase
// A's pinned MILP. There is no free-order branch-and-bound.
#pragma once

#include <vector>

#include "assay/schedule.h"
#include "core/order_search.h"
#include "ilp/model.h"
#include "ilp/types.h"
#include "wash/rescheduler.h"
#include "wash/wash_op.h"

namespace pdw::util {
class ThreadPool;
}

namespace pdw::core {

struct ScheduleIlpOptions {
  double alpha = 0.3;
  double beta = 0.3;
  double gamma = 0.4;
  wash::WashParams wash;
  double order_horizon_s = 12.0;
  bool enable_integration = true;
  ilp::SolveParams solver;
  /// No effect: the greedy warm start runs on the calling thread. Kept only
  /// because perfbench/pdw_perfbench.cpp sets it.
  util::ThreadPool* pool = nullptr;
  /// Phase A only (Pipeline::resolve): run the fix-and-optimize phase —
  /// every order binary pinned to the order of the greedy insertion
  /// (wash::rescheduleWithWashes) of the input schedule, which also seeds
  /// the warm start — and skip the order search. Nothing of a previous
  /// solve is reused. The result is never reported proven_optimal
  /// (optimality holds only for the pinned order).
  bool repair_mode = false;

  ScheduleIlpOptions() {
    solver.time_limit_seconds = 8.0;
    solver.node_limit = 60000;
  }
};

struct ScheduleIlpResult {
  bool success = false;
  assay::AssaySchedule schedule;
  int integrated_removals = 0;
  /// Set only where optimality is proven: no order binary is free and the
  /// pinned solve is Optimal, or the objective meets a lower bound (T_assay
  /// equals the longest path with every free disjunction dropped and every
  /// integrable removal at zero duration, and every integrable removal is
  /// integrated). Never in repair mode.
  bool proven_optimal = false;
  /// A budget stopped the stage: a pinned solve ended other than Optimal,
  /// or the order search stopped at its trial budget or its time limit.
  bool budget_hit = false;
  double objective = 0.0;
  /// Phase A plus the order search's pinned re-solves.
  ilp::SolveStats stats;
  /// Order search (cold solves only): fixed orders scored, accepted 1- and
  /// 2-flips, and why it stopped.
  int order_trials = 0;
  int order_flips = 0;
  OrderSearchStop order_stop = OrderSearchStop::NotRun;
  /// Model size bookkeeping (for the solver-scaling bench).
  int num_order_binaries = 0;
  int num_fixed_orders = 0;
  int num_psi_vars = 0;
};

/// `release` bounds the starts of the base operations and tasks from below
/// (Pipeline::resolve passes applyDelta's release times); the greedy warm
/// start honours it too. Empty vectors set no bound.
ScheduleIlpResult solveWashSchedule(
    const assay::AssaySchedule& base,
    const std::vector<wash::WashOperation>& washes,
    const ScheduleIlpOptions& options = {},
    const wash::ReleaseTimes& release = {});

/// The MILP solveWashSchedule solves, before phase A pins its orders, with
/// the greedy warm start as a point of it (for tests of the order search).
struct ScheduleModel {
  ilp::Model model;
  std::vector<ilp::VarId> order_binaries;
  ilp::VarId t_assay = -1;
  std::vector<double> warm_start;
};

ScheduleModel buildScheduleModel(
    const assay::AssaySchedule& base,
    const std::vector<wash::WashOperation>& washes,
    const ScheduleIlpOptions& options = {},
    const wash::ReleaseTimes& release = {});

}  // namespace pdw::core
