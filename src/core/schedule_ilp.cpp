#include "core/schedule_ilp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>

#include "ilp/solver.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "wash/contamination.h"
#include "wash/rescheduler.h"

namespace pdw::core {

namespace {

using assay::AssaySchedule;
using assay::FluidTask;
using assay::OpId;
using assay::TaskId;
using assay::TaskKind;
using ilp::LinExpr;
using ilp::Model;
using ilp::VarId;
using wash::WashOperation;
using Clock = std::chrono::steady_clock;

/// Start variable plus the end as an affine expression of it — end
/// variables are substituted out (end = start + duration), which halves the
/// model size versus the literal eqs. 1/6/7/18 without changing the
/// optimum (durations are tight at any optimum of eq. 26).
struct TimeItem {
  VarId start = -1;
  LinExpr end;
};

/// Bookkeeping for warm-starting order binaries.
struct OrderBinary {
  VarId var = -1;
  VarId a_start = -1;  // order = 1  <=>  a before b
  VarId b_start = -1;
};

class Builder {
 public:
  Builder(const AssaySchedule& base, const std::vector<WashOperation>& washes,
          const ScheduleIlpOptions& options, const wash::ReleaseTimes& release)
      : base_(base), washes_(washes), options_(options), release_(release) {
    PDW_TRACE_SPAN("scheduling", "greedy_warm_start");
    double wash_total = 0.0;
    for (const WashOperation& w : washes_)
      wash_total += w.duration(options_.wash, base_.chip().pitchMm());
    horizon_ = base_.completionTime() + wash_total + 20.0;
    greedy_ =
        wash::rescheduleWithWashes(base_, washes_, options_.wash, release_);
    horizon_ = std::max(horizon_, greedy_.completionTime() + 5.0);
  }

  void build() {
    PDW_TRACE_SPAN("scheduling", "build_model");
    buildTimeVariables();
    buildPsiVariables();
    defineEnds();
    buildOpConstraints();
    buildTaskConstraints();
    buildWashConstraints();
    buildIntegrationWindows();
    buildConflicts();
    buildObjective();
    for (const OrderBinary& ob : order_binaries_) orders_.push_back(ob.var);
  }

  ScheduleModel exportModel() {
    build();
    ScheduleModel out;
    out.warm_start = buildWarmStart();
    out.model = model_;
    out.order_binaries = orders_;
    out.t_assay = t_assay_;
    return out;
  }

  ScheduleIlpResult solve(Clock::time_point stage_start) {
    build();
    obs::Registry& reg = obs::Registry::instance();
    reg.gauge(obs::names::kScheduleIlpOrderBinaries)
        .set(static_cast<double>(num_order_binaries_));
    reg.gauge(obs::names::kScheduleIlpPsiVars)
        .set(static_cast<double>(psi_count_));

    ScheduleIlpResult result;
    result.num_order_binaries = num_order_binaries_;
    result.num_fixed_orders = num_fixed_orders_;
    result.num_psi_vars = static_cast<int>(psi_count_);

    // Phase A — fix-and-optimize: pin every order binary to the greedy
    // order and solve the remaining small MILP (continuous start times + psi
    // integration binaries) under the whole schedule budget. This re-times
    // the greedy order optimally and activates removal integration; it is
    // fast because the disjunctions collapse to plain precedence
    // constraints.
    ilp::SolveParams params = options_.solver;
    params.warm_start = buildWarmStart();
    Model fixed = model_;
    for (const VarId v : orders_) {
      const double y = params.warm_start[static_cast<std::size_t>(v)];
      fixed.setBounds(v, y, y);
    }
    ilp::Solution best = [&] {
      PDW_TRACE_SPAN("scheduling", "phase_a_fixed_orders");
      return ilp::solve(fixed, params);
    }();
    result.stats = best.stats;
    result.budget_hit = best.status != ilp::SolveStatus::Optimal;
    if (!best.hasSolution()) return result;  // success = false

    // Repair mode stops here: the pinned-order optimum re-times the
    // perturbed schedule. Cold solves search the orders (order_search.h).
    if (!options_.repair_mode) {
      const DifferenceConstraints graph(model_);
      const auto deadline =
          stage_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                options_.solver.time_limit_seconds));
      OrderSearchResult search = searchOrders(
          model_, graph, orders_, t_assay_, best, options_.solver, deadline);
      result.stats += search.stats;
      result.order_trials = search.trials;
      result.order_flips = search.flips;
      result.order_stop = search.stop;
      result.budget_hit = result.budget_hit || search.resolve_budget_hit ||
                          search.stop == OrderSearchStop::TrialBudget ||
                          search.stop == OrderSearchStop::Time;
      reg.counter(obs::names::kScheduleIlpOrderTrials).add(search.trials);
      reg.counter(obs::names::kScheduleIlpOrderFlips).add(search.flips);
      const bool pinned_optimal = best.status == ilp::SolveStatus::Optimal;
      best = std::move(search.best);
      result.proven_optimal = provenOptimal(graph, best, pinned_optimal);
    }

    result.success = true;
    result.objective = best.objective;
    result.schedule = extract(best, &result.integrated_removals);
    return result;
  }

 private:
  double bigM() const { return horizon_; }

  /// True when no order binary is free and the pinned solve is Optimal, or
  /// when `best` meets a lower bound on the objective: T_assay equals the
  /// longest path with every row at its weakest over the binaries (every
  /// free disjunction dropped, every integrable removal at zero duration),
  /// and every integrable removal is integrated (the psi reward at its
  /// bound too).
  bool provenOptimal(const DifferenceConstraints& graph,
                     const ilp::Solution& best, bool pinned_optimal) const {
    if (orders_.empty()) return pinned_optimal;
    if (!graph.supported()) return false;
    for (const auto& [removal, pairs] : psi_by_removal_) {
      bool integrated = false;
      for (const auto& [w, psi] : pairs)
        integrated = integrated || best.boolValue(psi);
      if (!integrated) return false;
    }
    return best.value(t_assay_) <=
           graph.relaxedEarliest()[static_cast<std::size_t>(t_assay_)] + 1e-6;
  }

  /// A start variable in [release, horizon] (release 0 without one).
  VarId addTime(const std::string& name, const std::vector<double>& release,
                int id) {
    const double lower =
        release.empty() ? 0.0 : release[static_cast<std::size_t>(id)];
    return model_.addContinuous(lower, horizon_, name);
  }

  double washDuration(std::size_t w) const {
    return washes_[w].duration(options_.wash, base_.chip().pitchMm());
  }

  void buildTimeVariables() {
    for (const assay::OpSchedule& s : base_.opSchedules())
      op_vars_[s.op].start =
          addTime("to" + std::to_string(s.op), release_.op, s.op);
    for (const FluidTask& t : base_.tasks())
      task_vars_[t.id].start =
          addTime("tp" + std::to_string(t.id), release_.task, t.id);
    wash_vars_.resize(washes_.size());
    for (std::size_t w = 0; w < washes_.size(); ++w)
      wash_vars_[w].start = addTime("tw" + std::to_string(w), {}, 0);
    t_assay_ = model_.addContinuous(0.0, horizon_, "T_assay");
  }

  /// psi_{r,w} = 1: removal r is integrated into wash w (paper §II-B,
  /// eqs. 7/21). Candidate pairs: the wash path covers the removal's
  /// payload cells (the cells that actually hold excess fluid).
  void buildPsiVariables() {
    if (!options_.enable_integration) return;
    for (const FluidTask& t : base_.tasks()) {
      if (t.kind != TaskKind::ExcessRemoval) continue;
      std::vector<arch::Cell> channel_payload;
      for (const arch::Cell& c : t.payloadCells())
        if (!base_.chip().isPortCell(c)) channel_payload.push_back(c);
      for (std::size_t w = 0; w < washes_.size(); ++w) {
        if (!washes_[w].path.coversAll(channel_payload)) continue;
        const VarId psi = model_.addBinary(
            "psi_r" + std::to_string(t.id) + "_w" + std::to_string(w));
        psi_by_removal_[t.id].push_back({static_cast<int>(w), psi});
        ++psi_count_;
      }
    }
  }

  void defineEnds() {
    for (const assay::OpSchedule& s : base_.opSchedules()) {
      op_vars_[s.op].end = LinExpr(op_vars_[s.op].start) +
                           base_.graph().op(s.op).duration_s;  // eq. 1
    }
    for (const FluidTask& t : base_.tasks()) {
      LinExpr end = LinExpr(task_vars_[t.id].start) + t.duration();
      // Eq. 7: integrated removals shrink to zero duration.
      const auto it = psi_by_removal_.find(t.id);
      if (it != psi_by_removal_.end())
        for (const auto& [w, psi] : it->second)
          end += -t.duration() * LinExpr(psi);
      task_vars_[t.id].end = std::move(end);
    }
    for (std::size_t w = 0; w < washes_.size(); ++w)
      wash_vars_[w].end =
          LinExpr(wash_vars_[w].start) + washDuration(w);  // eqs. 17/18
  }

  // Eq. 2 (precedence), eq. 3 (device exclusivity), eq. 22 (T_assay).
  void buildOpConstraints() {
    for (const assay::OpSchedule& s : base_.opSchedules())
      model_.addGreaterEqual(LinExpr(t_assay_) - op_vars_.at(s.op).end, 0.0);
    for (const assay::Dependency& d : base_.graph().dependencies())
      model_.addGreaterEqual(
          LinExpr(op_vars_.at(d.to).start) - op_vars_.at(d.from).end, 0.0);
    const auto& ops = base_.opSchedules();
    for (std::size_t i = 0; i < ops.size(); ++i)
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[i].device != ops[j].device) continue;
        // Device residue depends on execution order: keep the base order
        // the necessity analysis saw (kappa pinned; DESIGN.md §7).
        const auto& gi = greedy_.opSchedule(ops[i].op);
        const auto& gj = greedy_.opSchedule(ops[j].op);
        addDisjunction(op_vars_.at(ops[i].op), gi.start, gi.end,
                       op_vars_.at(ops[j].op), gj.start, gj.end,
                       LinExpr(0.0), /*allow_reorder=*/false);
      }
  }

  // Eqs. 4/5 plus T_assay coverage of trailing tasks.
  void buildTaskConstraints() {
    for (const FluidTask& t : base_.tasks()) {
      const TimeItem& v = task_vars_.at(t.id);
      model_.addGreaterEqual(LinExpr(t_assay_) - v.end, 0.0);

      switch (t.kind) {
        case TaskKind::Transport:
          if (t.producer >= 0)
            model_.addGreaterEqual(
                LinExpr(v.start) - op_vars_.at(t.producer).end, 0.0);
          if (t.consumer >= 0)
            model_.addLessEqual(
                v.end - LinExpr(op_vars_.at(t.consumer).start), 0.0);
          break;
        case TaskKind::ExcessRemoval: {
          const TaskId transport = matchingTransport(t);
          if (transport >= 0)
            model_.addGreaterEqual(
                LinExpr(v.start) - task_vars_.at(transport).end, 0.0);
          if (t.consumer >= 0)
            model_.addLessEqual(
                v.end - LinExpr(op_vars_.at(t.consumer).start), 0.0);
          break;
        }
        case TaskKind::WasteRemoval:
          if (t.producer >= 0) {
            model_.addGreaterEqual(
                LinExpr(v.start) - op_vars_.at(t.producer).end, 0.0);
            for (const FluidTask& other : base_.tasks())
              if (other.kind == TaskKind::Transport &&
                  other.producer == t.producer)
                model_.addGreaterEqual(
                    LinExpr(v.start) - task_vars_.at(other.id).end, 0.0);
          }
          break;
        case TaskKind::Wash:
          break;  // base schedules carry no washes
      }
    }
  }

  // Eq. 16: wash windows.
  void buildWashConstraints() {
    for (std::size_t w = 0; w < washes_.size(); ++w) {
      const WashOperation& wash = washes_[w];
      const TimeItem& v = wash_vars_[w];
      model_.addGreaterEqual(LinExpr(t_assay_) - v.end, 0.0);
      for (const wash::WashTarget& target : wash.targets) {
        if (target.contaminating_task >= 0)
          model_.addGreaterEqual(
              LinExpr(v.start) -
                  task_vars_.at(target.contaminating_task).end,
              0.0);
        if (target.contaminating_op >= 0)
          model_.addGreaterEqual(
              LinExpr(v.start) - op_vars_.at(target.contaminating_op).end,
              0.0);
        if (target.blocking_task >= 0)
          model_.addLessEqual(
              v.end - LinExpr(task_vars_.at(target.blocking_task).start),
              0.0);
      }
    }
  }

  // Eq. 21: when psi=1 the wash must run inside the removal's service
  // window (after its transport, before its consumer starts).
  void buildIntegrationWindows() {
    for (const auto& [removal_id, pairs] : psi_by_removal_) {
      const FluidTask& t = base_.task(removal_id);
      LinExpr psi_sum;
      for (const auto& [w, psi] : pairs) {
        psi_sum += LinExpr(psi);
        const TimeItem& wv = wash_vars_[static_cast<std::size_t>(w)];
        const TaskId transport = matchingTransport(t);
        if (transport >= 0)
          model_.addGreaterEqual(LinExpr(wv.start) -
                                     task_vars_.at(transport).end -
                                     bigM() * LinExpr(psi),
                                 -bigM(), "psi_window_lo");
        if (t.consumer >= 0)
          model_.addLessEqual(wv.end -
                                  LinExpr(op_vars_.at(t.consumer).start) +
                                  bigM() * LinExpr(psi),
                              bigM(), "psi_window_hi");
      }
      model_.addLessEqual(psi_sum, 1.0);  // at most one wash absorbs it
    }
  }

  /// Order disjunction between two intervals with big-M (eqs. 3/8/19/20).
  void addDisjunction(const TimeItem& a, double base_a_start,
                      double base_a_end, const TimeItem& b,
                      double base_b_start, double base_b_end,
                      const LinExpr& relax, bool allow_reorder = true) {
    const double gap_ab = base_b_start - base_a_end;  // a before b
    const double gap_ba = base_a_start - base_b_end;  // b before a
    if (!allow_reorder) {
      if (base_a_start <= base_b_start)
        model_.addGreaterEqual(LinExpr(b.start) - a.end + relax, 0.0);
      else
        model_.addGreaterEqual(LinExpr(a.start) - b.end + relax, 0.0);
      ++num_fixed_orders_;
      return;
    }
    if (gap_ab >= options_.order_horizon_s) {
      model_.addGreaterEqual(LinExpr(b.start) - a.end + relax, 0.0);
      ++num_fixed_orders_;
      return;
    }
    if (gap_ba >= options_.order_horizon_s) {
      model_.addGreaterEqual(LinExpr(a.start) - b.end + relax, 0.0);
      ++num_fixed_orders_;
      return;
    }
    const VarId order = model_.addBinary();
    order_binaries_.push_back({order, a.start, b.start});
    ++num_order_binaries_;
    // order=1: a before b; order=0: b before a.
    model_.addGreaterEqual(LinExpr(b.start) - a.end +
                               bigM() * (LinExpr(1.0) - LinExpr(order)) +
                               relax,
                           0.0);
    model_.addGreaterEqual(
        LinExpr(a.start) - b.end + bigM() * LinExpr(order) + relax, 0.0);
  }

  /// Eqs. 8/19/20: spatial-conflict serialization.
  void buildConflicts() {
    const auto relaxOf = [&](const FluidTask& t) {
      LinExpr relax;
      const auto it = psi_by_removal_.find(t.id);
      if (it != psi_by_removal_.end())
        for (const auto& [w, psi] : it->second)
          relax += bigM() * LinExpr(psi);
      return relax;
    };

    // Greedy reference times: base tasks keep ids; washes are appended.
    const auto greedyTask = [&](TaskId id) -> const FluidTask& {
      return greedy_.task(id);
    };
    const auto greedyWash = [&](std::size_t w) -> const FluidTask& {
      return greedy_.task(
          static_cast<TaskId>(base_.tasks().size() + w));
    };

    // Task-task (eq. 8).
    const auto& tasks = base_.tasks();
    for (std::size_t i = 0; i < tasks.size(); ++i)
      for (std::size_t j = i + 1; j < tasks.size(); ++j) {
        const FluidTask& a = tasks[i];
        const FluidTask& b = tasks[j];
        if (!a.path.overlaps(b.path)) continue;
        if (isOrderedByPrecedence(a, b)) continue;
        addDisjunction(task_vars_.at(a.id), greedyTask(a.id).start,
                       greedyTask(a.id).end, task_vars_.at(b.id),
                       greedyTask(b.id).start, greedyTask(b.id).end,
                       relaxOf(a) + relaxOf(b),
                       wash::reorderSafe(base_.graph().fluids(), a, b));
      }

    // Tasks crossing device cells of unrelated operations.
    for (const FluidTask& t : base_.tasks()) {
      for (const assay::OpSchedule& o : base_.opSchedules()) {
        if (!t.path.contains(base_.chip().device(o.device).cell)) continue;
        if (t.producer == o.op || t.consumer == o.op) continue;
        const auto& go = greedy_.opSchedule(o.op);
        addDisjunction(task_vars_.at(t.id), greedyTask(t.id).start,
                       greedyTask(t.id).end, op_vars_.at(o.op), go.start,
                       go.end, relaxOf(t), /*allow_reorder=*/false);
      }
    }

    // Wash-task (eq. 19), wash-op, wash-wash (eq. 20).
    for (std::size_t w = 0; w < washes_.size(); ++w) {
      const WashOperation& wash = washes_[w];
      const double w_lo = greedyWash(w).start;
      const double w_hi = greedyWash(w).end;
      for (const FluidTask& t : base_.tasks()) {
        if (!wash.path.overlaps(t.path)) continue;
        if (isWashOrdered(wash, t.id)) continue;
        addDisjunction(wash_vars_[w], w_lo, w_hi, task_vars_.at(t.id),
                       greedyTask(t.id).start, greedyTask(t.id).end,
                       relaxOf(t));
      }
      for (const assay::OpSchedule& o : base_.opSchedules()) {
        if (!wash.path.contains(base_.chip().device(o.device).cell))
          continue;
        const auto& go = greedy_.opSchedule(o.op);
        addDisjunction(wash_vars_[w], w_lo, w_hi, op_vars_.at(o.op), go.start,
                       go.end, LinExpr(0.0));
      }
      for (std::size_t w2 = w + 1; w2 < washes_.size(); ++w2) {
        if (!wash.path.overlaps(washes_[w2].path)) continue;
        addDisjunction(wash_vars_[w], w_lo, w_hi, wash_vars_[w2],
                       greedyWash(w2).start, greedyWash(w2).end,
                       LinExpr(0.0));
      }
    }
  }

  bool isOrderedByPrecedence(const FluidTask& a, const FluidTask& b) const {
    if (a.kind == TaskKind::Transport && b.kind == TaskKind::ExcessRemoval &&
        b.matching_transport == a.id)
      return true;
    if (b.kind == TaskKind::Transport && a.kind == TaskKind::ExcessRemoval &&
        a.matching_transport == b.id)
      return true;
    if (a.kind == TaskKind::WasteRemoval && b.kind == TaskKind::Transport &&
        b.producer == a.producer)
      return true;
    if (b.kind == TaskKind::WasteRemoval && a.kind == TaskKind::Transport &&
        a.producer == b.producer)
      return true;
    return false;
  }

  bool isWashOrdered(const WashOperation& wash, TaskId task) const {
    for (const wash::WashTarget& t : wash.targets)
      if (t.contaminating_task == task || t.blocking_task == task)
        return true;
    return false;
  }

  TaskId matchingTransport(const FluidTask& removal) const {
    if (removal.matching_transport >= 0) return removal.matching_transport;
    for (const FluidTask& t : base_.tasks())
      if (t.kind == TaskKind::Transport && t.producer == removal.producer &&
          t.consumer == removal.consumer)
        return t.id;
    return -1;
  }

  // Eq. 26.
  void buildObjective() {
    LinExpr objective = options_.gamma * LinExpr(t_assay_);
    double l_wash = 0.0;
    for (const WashOperation& w : washes_)
      l_wash += w.path.lengthMm(base_.chip().pitchMm());
    objective += LinExpr(options_.alpha * static_cast<double>(washes_.size()) +
                         options_.beta * l_wash);
    for (const auto& [removal_id, pairs] : psi_by_removal_)
      for (const auto& [w, psi] : pairs)
        objective += -0.01 * LinExpr(psi);  // prefer integration on ties
    model_.setObjective(objective);
  }

  /// Seed branch-and-bound with the greedy insertion schedule (the paper's
  /// best-effort semantics: the ILP can only improve on it).
  std::vector<double> buildWarmStart() {
    const AssaySchedule& greedy = greedy_;
    std::vector<double> warm(static_cast<std::size_t>(model_.numVars()), 0.0);
    for (const assay::OpSchedule& s : greedy.opSchedules())
      warm[static_cast<std::size_t>(op_vars_.at(s.op).start)] = s.start;
    // Base tasks keep their ids in the greedy schedule; washes are the
    // trailing tasks in input order.
    for (const FluidTask& t : base_.tasks())
      warm[static_cast<std::size_t>(task_vars_.at(t.id).start)] =
          greedy.task(t.id).start;
    const std::size_t wash_base = base_.tasks().size();
    for (std::size_t w = 0; w < washes_.size(); ++w)
      warm[static_cast<std::size_t>(wash_vars_[w].start)] =
          greedy.task(static_cast<TaskId>(wash_base + w)).start;
    warm[static_cast<std::size_t>(t_assay_)] = greedy.completionTime();
    // psi = 0 everywhere (greedy performs full removals).
    for (const OrderBinary& ob : order_binaries_) {
      warm[static_cast<std::size_t>(ob.var)] =
          warm[static_cast<std::size_t>(ob.a_start)] <=
                  warm[static_cast<std::size_t>(ob.b_start)]
              ? 1.0
              : 0.0;
    }
    return warm;
  }

  AssaySchedule extract(const ilp::Solution& sol, int* integrated) const {
    AssaySchedule out(&base_.graph(), &base_.chip());
    for (const assay::OpSchedule& s : base_.opSchedules()) {
      assay::OpSchedule copy = s;
      copy.start = sol.value(op_vars_.at(s.op).start);
      copy.end = op_vars_.at(s.op).end.evaluate(sol.values);
      out.addOpSchedule(copy);
    }
    *integrated = 0;
    for (const FluidTask& t : base_.tasks()) {
      FluidTask copy = t;
      copy.start = sol.value(task_vars_.at(t.id).start);
      copy.end = task_vars_.at(t.id).end.evaluate(sol.values);
      if (t.kind == TaskKind::ExcessRemoval && copy.duration() < 1e-5) {
        copy.end = copy.start;  // integrated: exact zero duration
        ++*integrated;
      }
      out.addTask(copy);
    }
    for (std::size_t w = 0; w < washes_.size(); ++w) {
      FluidTask task;
      task.kind = TaskKind::Wash;
      task.fluid = base_.graph().fluids().buffer();
      task.path = washes_[w].path;
      task.start = sol.value(wash_vars_[w].start);
      task.end = task.start + washDuration(w);
      out.addTask(task);
    }
    return out;
  }

  const AssaySchedule& base_;
  const std::vector<WashOperation>& washes_;
  const ScheduleIlpOptions& options_;
  const wash::ReleaseTimes& release_;
  AssaySchedule greedy_;
  double horizon_ = 0.0;

  Model model_;
  std::map<OpId, TimeItem> op_vars_;
  std::map<TaskId, TimeItem> task_vars_;
  std::vector<TimeItem> wash_vars_;
  VarId t_assay_ = -1;
  /// removal task id -> (wash index, psi var).
  std::map<TaskId, std::vector<std::pair<int, VarId>>> psi_by_removal_;
  std::size_t psi_count_ = 0;
  std::vector<OrderBinary> order_binaries_;
  std::vector<VarId> orders_;  ///< the order binaries' variables
  int num_order_binaries_ = 0;
  int num_fixed_orders_ = 0;
};

}  // namespace

ScheduleIlpResult solveWashSchedule(const AssaySchedule& base,
                                    const std::vector<WashOperation>& washes,
                                    const ScheduleIlpOptions& options,
                                    const wash::ReleaseTimes& release) {
  const auto start = Clock::now();
  Builder builder(base, washes, options, release);
  return builder.solve(start);
}

ScheduleModel buildScheduleModel(const AssaySchedule& base,
                                 const std::vector<WashOperation>& washes,
                                 const ScheduleIlpOptions& options,
                                 const wash::ReleaseTimes& release) {
  return Builder(base, washes, options, release).exportModel();
}

}  // namespace pdw::core
