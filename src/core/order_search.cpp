#include "core/order_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "ilp/solver.h"
#include "obs/trace.h"

namespace pdw::core {

namespace {

using ilp::VarId;
using Clock = std::chrono::steady_clock;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
/// A longest-path label must rise by more than this to count as a change,
/// so zero-weight cycles end the pass.
constexpr double kRise = 1e-9;
/// The LP engine's feasibility tolerance (RevisedSimplex::kFeasibilityTol):
/// how far a value may pass its upper bound, or an all-integer row its
/// right-hand side, and still count as feasible.
constexpr double kFeasibilityTol = 1e-7;
/// A row is tight on a longest path within this slack.
constexpr double kTightTol = 1e-6;
/// T_assay and the objective must fall by more than this to count.
constexpr double kImprove = 1e-6;

}  // namespace

DifferenceConstraints::DifferenceConstraints(const ilp::Model& model)
    : num_vars_(model.numVars()) {
  const std::size_t n = static_cast<std::size_t>(num_vars_);
  is_integer_.resize(n);
  lower_.resize(n);
  upper_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const ilp::Variable& var = model.vars()[v];
    is_integer_[v] = var.type != ilp::VarType::Continuous;
    lower_[v] = var.lower;
    upper_[v] = var.upper;
    if (!is_integer_[v]) continuous_.push_back(static_cast<VarId>(v));
  }
  for (const ilp::Constraint& row : model.constraints()) {
    const double rhs = row.rhs - row.expr.constant();
    if (row.sense != ilp::Sense::LessEqual) addRow(row.expr, rhs, 1.0);
    if (row.sense != ilp::Sense::GreaterEqual) addRow(row.expr, rhs, -1.0);
  }

  // Compressed adjacency: edges with both ends go to the out-list of their
  // tail and the in-list of their head; the rest are loose.
  out_start_.assign(n + 1, 0);
  in_start_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    if (e.from >= 0 && e.to >= 0) {
      ++out_start_[static_cast<std::size_t>(e.from) + 1];
      ++in_start_[static_cast<std::size_t>(e.to) + 1];
    }
  }
  std::partial_sum(out_start_.begin(), out_start_.end(), out_start_.begin());
  std::partial_sum(in_start_.begin(), in_start_.end(), in_start_.begin());
  out_edges_.resize(static_cast<std::size_t>(out_start_.back()));
  in_edges_.resize(static_cast<std::size_t>(in_start_.back()));
  std::vector<int> out_fill(out_start_.begin(), out_start_.end() - 1);
  std::vector<int> in_fill(in_start_.begin(), in_start_.end() - 1);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    if (e.from >= 0 && e.to >= 0) {
      out_edges_[static_cast<std::size_t>(
          out_fill[static_cast<std::size_t>(e.from)]++)] = static_cast<int>(i);
      in_edges_[static_cast<std::size_t>(
          in_fill[static_cast<std::size_t>(e.to)]++)] = static_cast<int>(i);
    } else {
      loose_edges_.push_back(static_cast<int>(i));
    }
  }

  weight_.resize(edges_.size());
  queue_.resize(continuous_.size() + 1);
  queued_.resize(n);
  pops_.resize(n);
  tail_.resize(n);
}

void DifferenceConstraints::addRow(const ilp::LinExpr& expr, double rhs,
                                   double sign) {
  // sign * expr >= sign * rhs.
  Edge edge;
  edge.c = sign * rhs;
  edge.terms_begin = static_cast<std::uint32_t>(terms_.size());
  for (const auto& [var, coef] : expr.terms()) {
    const double k = sign * coef;
    if (is_integer_[static_cast<std::size_t>(var)]) {
      terms_.emplace_back(var, k);
    } else if (k == 1.0 && edge.to < 0) {
      edge.to = var;
    } else if (k == -1.0 && edge.from < 0) {
      edge.from = var;
    } else {
      supported_ = false;
    }
  }
  edge.terms_end = static_cast<std::uint32_t>(terms_.size());
  edges_.push_back(edge);
}

void DifferenceConstraints::computeWeights(const std::vector<double>& values,
                                           bool relaxed) const {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    double w = e.c;
    for (std::uint32_t t = e.terms_begin; t < e.terms_end; ++t) {
      const auto [var, k] = terms_[t];
      const std::size_t v = static_cast<std::size_t>(var);
      w -= relaxed ? std::max(k * lower_[v], k * upper_[v])
                   : k * std::round(values[v]);
    }
    weight_[i] = w;
  }
}

void DifferenceConstraints::sortByValue(
    const std::vector<double>& values) const {
  order_ = continuous_;
  std::sort(order_.begin(), order_.end(), [&](VarId a, VarId b) {
    const double va = values[static_cast<std::size_t>(a)];
    const double vb = values[static_cast<std::size_t>(b)];
    return va != vb ? va < vb : a < b;
  });
}

bool DifferenceConstraints::propagate(std::vector<double>& values) const {
  for (const VarId v : continuous_)
    values[static_cast<std::size_t>(v)] = lower_[static_cast<std::size_t>(v)];
  for (const int i : loose_edges_) {
    const Edge& e = edges_[static_cast<std::size_t>(i)];
    const double w = weight_[static_cast<std::size_t>(i)];
    if (e.to >= 0) {
      double& x = values[static_cast<std::size_t>(e.to)];
      x = std::max(x, w);
      if (x > upper_[static_cast<std::size_t>(e.to)] + kFeasibilityTol)
        return false;
    } else if (e.from < 0 && w > kFeasibilityTol) {
      return false;
    }
  }

  // FIFO label-correcting pass (Bellman-Ford-Moore). The queue starts in
  // `order_`: when that is a topological order of the tight rows every
  // variable leaves the queue once. A variable leaving it more often than
  // there are variables lies on a positive cycle.
  const std::size_t cap = queue_.size();
  const int limit = static_cast<int>(continuous_.size());
  std::size_t head = 0, tail = 0;
  for (const VarId v : order_) {
    queue_[tail++] = v;
    queued_[static_cast<std::size_t>(v)] = 1;
    pops_[static_cast<std::size_t>(v)] = 0;
  }
  bool feasible = true;
  while (head != tail) {
    const std::size_t u = static_cast<std::size_t>(queue_[head]);
    head = head + 1 == cap ? 0 : head + 1;
    queued_[u] = 0;
    if (!feasible || ++pops_[u] > limit) {
      feasible = false;
      continue;  // drain the queue so every flag is cleared
    }
    const double base = values[u];
    for (int k = out_start_[u]; k < out_start_[u + 1]; ++k) {
      const int i = out_edges_[static_cast<std::size_t>(k)];
      const std::size_t v =
          static_cast<std::size_t>(edges_[static_cast<std::size_t>(i)].to);
      const double candidate = base + weight_[static_cast<std::size_t>(i)];
      if (candidate <= values[v] + kRise) continue;
      values[v] = candidate;
      if (candidate > upper_[v] + kFeasibilityTol) {
        feasible = false;
        break;
      }
      if (!queued_[v]) {
        queued_[v] = 1;
        queue_[tail] = static_cast<int>(v);
        tail = tail + 1 == cap ? 0 : tail + 1;
      }
    }
  }
  if (!feasible) return false;

  for (const int i : loose_edges_) {
    const Edge& e = edges_[static_cast<std::size_t>(i)];
    if (e.from >= 0 && e.to < 0 &&
        values[static_cast<std::size_t>(e.from)] >
            -weight_[static_cast<std::size_t>(i)] + kFeasibilityTol)
      return false;
  }
  return true;
}

bool DifferenceConstraints::earliest(std::vector<double>& values) const {
  computeWeights(values, /*relaxed=*/false);
  sortByValue(values);
  return propagate(values);
}

std::vector<double> DifferenceConstraints::relaxedEarliest() const {
  std::vector<double> values(static_cast<std::size_t>(num_vars_), 0.0);
  computeWeights(values, /*relaxed=*/true);
  order_ = continuous_;
  propagate(values);
  return values;
}

std::vector<VarId> DifferenceConstraints::criticalIntegers(
    const std::vector<double>& values, VarId sink) const {
  computeWeights(values, /*relaxed=*/false);
  sortByValue(values);
  // Longest path from each variable to the sink, over the reversed rows in
  // reverse topological order, so each variable is final when it is read.
  std::fill(tail_.begin(), tail_.end(), kNegInf);
  tail_[static_cast<std::size_t>(sink)] = 0.0;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    if (tail_[v] == kNegInf) continue;
    for (int k = in_start_[v]; k < in_start_[v + 1]; ++k) {
      const int i = in_edges_[static_cast<std::size_t>(k)];
      const std::size_t u =
          static_cast<std::size_t>(edges_[static_cast<std::size_t>(i)].from);
      tail_[u] = std::max(tail_[u], weight_[static_cast<std::size_t>(i)] +
                                        tail_[v]);
    }
  }

  const double length = values[static_cast<std::size_t>(sink)];
  std::vector<VarId> critical;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    if (e.from < 0 || e.to < 0 || e.terms_begin == e.terms_end) continue;
    const double through = values[static_cast<std::size_t>(e.from)] +
                           weight_[i] + tail_[static_cast<std::size_t>(e.to)];
    if (through < length - kTightTol) continue;
    for (std::uint32_t t = e.terms_begin; t < e.terms_end; ++t)
      critical.push_back(terms_[t].first);
  }
  std::sort(critical.begin(), critical.end());
  critical.erase(std::unique(critical.begin(), critical.end()),
                 critical.end());
  return critical;
}

OrderSearchResult searchOrders(const ilp::Model& model,
                               const DifferenceConstraints& graph,
                               const std::vector<VarId>& orders,
                               VarId t_assay, const ilp::Solution& start,
                               const ilp::SolveParams& budget,
                               Clock::time_point deadline) {
  PDW_TRACE_SPAN("scheduling", "order_search");
  OrderSearchResult out;
  out.best = start;
  // The incumbent as the search reads it: integers rounded, every start at
  // its earliest (the pinned LP's optimum).
  std::vector<double> incumbent;
  double t_incumbent = 0.0;
  const auto adopt = [&](const std::vector<double>& values) {
    incumbent = values;
    for (std::size_t v = 0; v < incumbent.size(); ++v)
      if (model.vars()[v].type != ilp::VarType::Continuous)
        incumbent[v] = std::round(incumbent[v]);
    const bool feasible = graph.earliest(incumbent);
    t_incumbent = incumbent[static_cast<std::size_t>(t_assay)];
    return feasible;
  };
  if (!graph.supported() || !adopt(start.values)) return out;

  std::vector<char> is_order(incumbent.size(), 0);
  for (const VarId v : orders) is_order[static_cast<std::size_t>(v)] = 1;

  const auto exhausted = [&] {
    if (out.trials >= budget.node_limit) {
      out.stop = OrderSearchStop::TrialBudget;
      return true;
    }
    if (Clock::now() >= deadline) {
      out.stop = OrderSearchStop::Time;
      return true;
    }
    return false;
  };
  // Score the incumbent with `flip` flipped into `trial`; true when the
  // fixed order is feasible and shortens T_assay.
  std::vector<double> trial;
  const auto improves = [&](std::initializer_list<VarId> flip) {
    trial = incumbent;
    for (const VarId v : flip) {
      double& y = trial[static_cast<std::size_t>(v)];
      y = 1.0 - y;
    }
    ++out.trials;
    return graph.earliest(trial) &&
           trial[static_cast<std::size_t>(t_assay)] < t_incumbent - kImprove;
  };
  // Re-solve the order of `point` as phase A's pinned MILP, warm-started
  // from it; adopt the result if the objective falls and T_assay holds.
  const auto accept = [&](const std::vector<double>& point) {
    PDW_TRACE_SPAN("scheduling", "order_resolve");
    ilp::Model pinned = model;
    for (const VarId v : orders) {
      const double y = point[static_cast<std::size_t>(v)];
      pinned.setBounds(v, y, y);
    }
    ilp::SolveParams params = budget;
    params.warm_start = point;
    params.time_limit_seconds = std::max(
        0.0, std::chrono::duration<double>(deadline - Clock::now()).count());
    const ilp::Solution solved = ilp::solve(pinned, params);
    out.stats += solved.stats;
    if (solved.status != ilp::SolveStatus::Optimal)
      out.resolve_budget_hit = true;
    if (!solved.hasSolution() ||
        solved.objective >= out.best.objective - kImprove ||
        solved.value(t_assay) > t_incumbent + kImprove)
      return false;
    out.best = solved;
    adopt(solved.values);
    ++out.flips;
    return true;
  };

  for (;;) {
    std::vector<VarId> candidates;
    for (const VarId v : graph.criticalIntegers(incumbent, t_assay))
      if (is_order[static_cast<std::size_t>(v)]) candidates.push_back(v);

    // Every 1-flip, then the improving ones best first.
    bool stopped = false;
    std::vector<std::pair<double, std::vector<double>>> improving;
    for (const VarId v : candidates) {
      if ((stopped = exhausted())) break;
      if (improves({v}))
        improving.emplace_back(trial[static_cast<std::size_t>(t_assay)],
                               trial);
    }
    std::stable_sort(improving.begin(), improving.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    bool moved = false;
    for (const auto& [t, point] : improving)
      if ((moved = accept(point))) break;
    if (moved) continue;
    if (stopped) break;

    // 2-flips, first improvement.
    for (std::size_t i = 0; i < candidates.size() && !moved && !stopped; ++i)
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if ((stopped = exhausted())) break;
        if (improves({candidates[i], candidates[j]}) &&
            (moved = accept(trial)))
          break;
      }
    if (moved) continue;
    if (!stopped) out.stop = OrderSearchStop::LocalOptimum;
    break;
  }
  return out;
}

}  // namespace pdw::core
