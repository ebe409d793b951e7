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
#pragma once

#include <vector>

#include "assay/schedule.h"
#include "ilp/types.h"
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
  /// Optional runtime (non-owning): accelerates the greedy warm start's
  /// conflict precomputation. nullptr = sequential.
  util::ThreadPool* pool = nullptr;
  /// Phase A only (Pipeline::resolve): run the fix-and-optimize phase —
  /// every order binary pinned to the order of the greedy insertion
  /// (wash::rescheduleWithWashes) of the input schedule, which also seeds
  /// the warm start — and skip the free-order Phase B. Nothing of a
  /// previous solve is reused. The pinned model's disjunctions collapse to
  /// plain precedences, so this costs a small fraction of a cold two-phase
  /// solve; the result is never reported proven_optimal (optimality holds
  /// only for the pinned order).
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
  bool proven_optimal = false;
  double objective = 0.0;
  ilp::SolveStats stats;
  /// Model size bookkeeping (for the solver-scaling bench).
  int num_order_binaries = 0;
  int num_fixed_orders = 0;
  int num_psi_vars = 0;
};

ScheduleIlpResult solveWashSchedule(
    const assay::AssaySchedule& base,
    const std::vector<wash::WashOperation>& washes,
    const ScheduleIlpOptions& options = {});

}  // namespace pdw::core
