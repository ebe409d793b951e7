#include "ilp/revised_simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/flight.h"

namespace pdw::ilp {

RevisedSimplex::RevisedSimplex(const Model& model, const SolveParams& params)
    : model_(model),
      params_(params),
      csc_(buildCsc(model)),
      csr_(buildCsr(csc_, model.numConstraints())) {
  using Clock = std::chrono::steady_clock;
  deadline_ = params.time_limit_seconds < 1e9
                  ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           params.time_limit_seconds))
                  : Clock::time_point::max();
  n_ = model.numVars();
  m_ = model.numConstraints();
  total_ = n_ + m_;

  cost_.assign(static_cast<std::size_t>(n_), 0.0);
  for (const auto& [var, coeff] : model.objective().terms())
    cost_[static_cast<std::size_t>(var)] += coeff;

  rhs_.resize(static_cast<std::size_t>(m_));
  slack_lb_.resize(static_cast<std::size_t>(m_));
  slack_ub_.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    rhs_[static_cast<std::size_t>(i)] = c.rhs;
    switch (c.sense) {
      case Sense::LessEqual:
        slack_lb_[static_cast<std::size_t>(i)] = 0.0;
        slack_ub_[static_cast<std::size_t>(i)] = kInfinity;
        break;
      case Sense::GreaterEqual:
        slack_lb_[static_cast<std::size_t>(i)] = -kInfinity;
        slack_ub_[static_cast<std::size_t>(i)] = 0.0;
        break;
      case Sense::Equal:
        slack_lb_[static_cast<std::size_t>(i)] = 0.0;
        slack_ub_[static_cast<std::size_t>(i)] = 0.0;
        break;
    }
  }

  alpha_.resize(static_cast<std::size_t>(m_));
  rho_.resize(static_cast<std::size_t>(m_));
}

std::int64_t RevisedSimplex::blandThreshold() const {
  if (params_.bland_iteration_override > 0)
    return params_.bland_iteration_override;
  return 2000 + 40LL * (m_ + total_);
}

std::int64_t RevisedSimplex::perRunCap() const {
  return std::min<std::int64_t>(params_.simplex_iteration_limit,
                                120LL * (m_ + total_) + 5000);
}

void RevisedSimplex::columnEntries(int col, BasisLu::SparseColumn* out) const {
  out->clear();
  if (col < n_) {
    for (int k = csc_.col_start[static_cast<std::size_t>(col)];
         k < csc_.col_start[static_cast<std::size_t>(col) + 1]; ++k)
      out->emplace_back(csc_.row_index[static_cast<std::size_t>(k)],
                        csc_.value[static_cast<std::size_t>(k)]);
  } else {
    out->emplace_back(col - n_, 1.0);
  }
}

void RevisedSimplex::ftranColumn(int col, std::vector<double>* alpha) const {
  alpha->assign(static_cast<std::size_t>(m_), 0.0);
  if (col < n_) {
    for (int k = csc_.col_start[static_cast<std::size_t>(col)];
         k < csc_.col_start[static_cast<std::size_t>(col) + 1]; ++k)
      (*alpha)[static_cast<std::size_t>(
          csc_.row_index[static_cast<std::size_t>(k)])] =
          csc_.value[static_cast<std::size_t>(k)];
  } else {
    (*alpha)[static_cast<std::size_t>(col - n_)] = 1.0;
  }
  lu_.ftran(*alpha);
}

void RevisedSimplex::pivotRow(int pos, std::vector<double>* rho) {
  rho->assign(static_cast<std::size_t>(m_), 0.0);
  (*rho)[static_cast<std::size_t>(pos)] = 1.0;
  lu_.btran(*rho);
  // Prices every nonbasic column against rho, currently fixed columns
  // included: their reduced costs must stay maintained so a later bound
  // loosening can warm-start.
  pricer_.price(csr_, n_, *rho);
}

bool RevisedSimplex::refactor() {
  basis_cols_.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i)
    columnEntries(basis_[static_cast<std::size_t>(i)],
                  &basis_cols_[static_cast<std::size_t>(i)]);
  if (!lu_.factor(m_, basis_cols_)) return false;
  ++call_factorizations_;
  if (flight_) flight_->record(obs::FlightEventKind::Refactorization);
  // Re-anchor drift: both the basic values and the reduced costs are
  // recomputed from scratch against the fresh factors.
  computeBasicValues();
  computeDuals();
  return true;
}

void RevisedSimplex::computeBasicValues() {
  std::vector<double>& r = alpha_;
  r.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i)
    r[static_cast<std::size_t>(i)] = rhs_[static_cast<std::size_t>(i)];
  for (int j = 0; j < total_; ++j) {
    if (pos_of_[static_cast<std::size_t>(j)] >= 0) continue;
    const double xj = x_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    if (j < n_) {
      for (int k = csc_.col_start[static_cast<std::size_t>(j)];
           k < csc_.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        r[static_cast<std::size_t>(
            csc_.row_index[static_cast<std::size_t>(k)])] -=
            csc_.value[static_cast<std::size_t>(k)] * xj;
    } else {
      r[static_cast<std::size_t>(j - n_)] -= xj;
    }
  }
  lu_.ftran(r);
  for (int i = 0; i < m_; ++i)
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        r[static_cast<std::size_t>(i)];
}

void RevisedSimplex::computeDuals() {
  std::vector<double>& y = rho_;
  y.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i)
    y[static_cast<std::size_t>(i)] = cost(basis_[static_cast<std::size_t>(i)]);
  lu_.btran(y);
  for (int j = 0; j < total_; ++j) {
    if (pos_of_[static_cast<std::size_t>(j)] >= 0) {
      d_[static_cast<std::size_t>(j)] = 0.0;
      continue;
    }
    if (j < n_) {
      double v = cost_[static_cast<std::size_t>(j)];
      for (int k = csc_.col_start[static_cast<std::size_t>(j)];
           k < csc_.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        v -= csc_.value[static_cast<std::size_t>(k)] *
             y[static_cast<std::size_t>(
                 csc_.row_index[static_cast<std::size_t>(k)])];
      d_[static_cast<std::size_t>(j)] = v;
    } else {
      d_[static_cast<std::size_t>(j)] = -y[static_cast<std::size_t>(j - n_)];
    }
  }
}

// ---- cold path: dual-feasible slack start + dual simplex ----------------

void RevisedSimplex::loadCold(const std::vector<double>& lower,
                              const std::vector<double>& upper) {
  lb_.assign(static_cast<std::size_t>(total_), 0.0);
  ub_.assign(static_cast<std::size_t>(total_), 0.0);
  vstat_.assign(static_cast<std::size_t>(total_), VStat::Basic);
  x_.assign(static_cast<std::size_t>(total_), 0.0);
  d_.assign(static_cast<std::size_t>(total_), 0.0);
  basis_.resize(static_cast<std::size_t>(m_));
  pos_of_.assign(static_cast<std::size_t>(total_), -1);

  // The all-slack basis has y = 0, so d_j = c_j: resting each column on
  // the bound its cost pulls toward makes the start dual-feasible. A cost
  // pulling toward an infinite bound gets an artificial bound there, at
  // +-kArtificialBound and at least that far from the column's other bound.
  for (int j = 0; j < n_; ++j) {
    const double lb = lower[static_cast<std::size_t>(j)];
    const double ub = upper[static_cast<std::size_t>(j)];
    const double c = cost_[static_cast<std::size_t>(j)];
    lb_[static_cast<std::size_t>(j)] = lb;
    ub_[static_cast<std::size_t>(j)] = ub;
    VStat at = VStat::Free;
    if (c > 0.0 || (c == 0.0 && std::isfinite(lb))) {
      at = VStat::Lower;
      if (!std::isfinite(lb))
        lb_[static_cast<std::size_t>(j)] =
            std::min(-kArtificialBound, ub - kArtificialBound);
    } else if (c < 0.0 || std::isfinite(ub)) {
      at = VStat::Upper;
      if (!std::isfinite(ub))
        ub_[static_cast<std::size_t>(j)] =
            std::max(kArtificialBound, lb + kArtificialBound);
    }
    vstat_[static_cast<std::size_t>(j)] = at;
    x_[static_cast<std::size_t>(j)] =
        at == VStat::Lower   ? lb_[static_cast<std::size_t>(j)]
        : at == VStat::Upper ? ub_[static_cast<std::size_t>(j)]
                             : 0.0;
  }
  for (int i = 0; i < m_; ++i) {
    const int s = n_ + i;
    lb_[static_cast<std::size_t>(s)] = slack_lb_[static_cast<std::size_t>(i)];
    ub_[static_cast<std::size_t>(s)] = slack_ub_[static_cast<std::size_t>(i)];
    basis_[static_cast<std::size_t>(i)] = s;
    pos_of_[static_cast<std::size_t>(s)] = i;
    vstat_[static_cast<std::size_t>(s)] = VStat::Basic;
  }
  weight_.assign(static_cast<std::size_t>(m_), 1.0);
  widened_ = false;
  cur_lower_ = lower;
  cur_upper_ = upper;
}

LpResult RevisedSimplex::outcome(LpStatus status) const {
  LpResult result;
  result.status = status;
  result.iterations = call_iterations_;
  result.factorizations = call_factorizations_;
  return result;
}

LpResult RevisedSimplex::optimalResult() {
  LpResult result = outcome(LpStatus::Optimal);
  result.values = extractValues();
  result.objective = model_.objective().evaluate(result.values);
  ready_ = true;
  return result;
}

LpResult RevisedSimplex::runCold(const std::vector<double>& lower,
                                 const std::vector<double>& upper) {
  ready_ = false;
  warm_since_cold_ = 0;

  for (int j = 0; j < n_; ++j)
    if (lower[static_cast<std::size_t>(j)] >
        upper[static_cast<std::size_t>(j)] + kEps)
      return outcome(LpStatus::Infeasible);

  // Out of time: skip the reload and refactor.
  if (pastDeadline()) return outcome(LpStatus::IterLimit);
  loadCold(lower, upper);
  // The all-slack basis cannot fail to factor; defensive only.
  if (!refactor()) return outcome(LpStatus::IterLimit);

  switch (dualIterate(perRunCap())) {
    case DualStatus::Optimal:
      return optimalResult();
    case DualStatus::Infeasible:
      return outcome(LpStatus::Infeasible);
    case DualStatus::Unbounded:
      return outcome(LpStatus::Unbounded);
    default:  // stalled or out of time
      return outcome(LpStatus::IterLimit);
  }
}

LpResult RevisedSimplex::solve(const std::vector<double>& lower,
                               const std::vector<double>& upper,
                               bool allow_warm, bool* used_warm,
                               std::int64_t* dual_pivots) {
  call_iterations_ = 0;
  bool warm = false;
  // Pivots of the warm attempt, also when it stalls and falls back cold:
  // a cold solve's pivots count only as iterations.
  std::int64_t warm_pivots = 0;
  LpResult result;
  if (allow_warm && ready_ && warm_since_cold_ < kColdRefreshInterval) {
    std::optional<LpResult> r = warmSolve(lower, upper);
    warm_pivots = call_iterations_;
    if (r) {
      warm = true;
      ++warm_since_cold_;
      result = std::move(*r);
    }
  }
  if (!warm) result = runCold(lower, upper);
  call_factorizations_ = 0;
  if (used_warm) *used_warm = warm;
  if (dual_pivots) *dual_pivots = warm_pivots;
  return result;
}

// ---- warm path: aggregated bound deltas + dual simplex -------------------

std::optional<LpResult> RevisedSimplex::warmSolve(
    const std::vector<double>& lower, const std::vector<double>& upper) {
  // Validation pass: nothing is mutated until the whole delta is known to
  // be expressible, so bailing out leaves the engine state untouched.
  for (int j = 0; j < n_; ++j) {
    const double lb = lower[static_cast<std::size_t>(j)];
    const double ub = upper[static_cast<std::size_t>(j)];
    if (lb > ub + kEps) {
      // Trivially empty box: report without touching the engine, so it can
      // keep warm-starting from its current state.
      return outcome(LpStatus::Infeasible);
    }
    if (lb == cur_lower_[static_cast<std::size_t>(j)] &&
        ub == cur_upper_[static_cast<std::size_t>(j)])
      continue;
    switch (vstat_[static_cast<std::size_t>(j)]) {
      case VStat::Basic:
        break;  // bound changes on basic columns only move the violation set
      case VStat::Lower:
        if (!std::isfinite(lb)) return std::nullopt;
        break;
      case VStat::Upper:
        if (!std::isfinite(ub)) return std::nullopt;
        break;
      case VStat::Free:
        // Free nonbasic columns rest at a value, not a bound; a bound
        // appearing under them is a cold-restart case (it never happens in
        // branch-and-bound, which only branches on bounded integers).
        return std::nullopt;
    }
  }

  // Apply: move every changed nonbasic column to its new bound and fold all
  // the deltas into ONE aggregated right-hand-side correction — a single
  // FTRAN re-prices the whole basic solution regardless of how many bounds
  // changed. A changed column's real bounds replace any artificial one.
  std::vector<double> agg(static_cast<std::size_t>(m_), 0.0);
  bool any_delta = false;
  const auto addColumnTimes = [&](int j, double delta) {
    if (j < n_) {
      for (int k = csc_.col_start[static_cast<std::size_t>(j)];
           k < csc_.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        agg[static_cast<std::size_t>(
            csc_.row_index[static_cast<std::size_t>(k)])] +=
            csc_.value[static_cast<std::size_t>(k)] * delta;
    } else {
      agg[static_cast<std::size_t>(j - n_)] += delta;
    }
    any_delta = true;
  };

  for (int j = 0; j < n_; ++j) {
    const double lb = lower[static_cast<std::size_t>(j)];
    const double ub = upper[static_cast<std::size_t>(j)];
    if (lb == cur_lower_[static_cast<std::size_t>(j)] &&
        ub == cur_upper_[static_cast<std::size_t>(j)])
      continue;
    double delta = 0.0;
    switch (vstat_[static_cast<std::size_t>(j)]) {
      case VStat::Lower:
        delta = lb - x_[static_cast<std::size_t>(j)];
        x_[static_cast<std::size_t>(j)] = lb;
        break;
      case VStat::Upper:
        delta = ub - x_[static_cast<std::size_t>(j)];
        x_[static_cast<std::size_t>(j)] = ub;
        break;
      default:
        break;
    }
    lb_[static_cast<std::size_t>(j)] = lb;
    ub_[static_cast<std::size_t>(j)] = ub;
    cur_lower_[static_cast<std::size_t>(j)] = lb;
    cur_upper_[static_cast<std::size_t>(j)] = ub;
    if (delta != 0.0) addColumnTimes(j, delta);
  }

  // Dual feasibility repair. Bound changes never touch reduced costs, but
  // loosening a bound can resurrect a column that was pinned (lb == ub) at
  // the previous optimum while resting at the dual-wrong bound — it was
  // allowed to stay there because it could not move. Flip it to the other
  // bound; a column with no finite bound to flip to forces a cold rebuild
  // (mutations are fine past this point, the fallback reloads everything).
  for (int j = 0; j < total_; ++j) {
    if (pos_of_[static_cast<std::size_t>(j)] >= 0 || fixedCol(j)) continue;
    const double dj = d_[static_cast<std::size_t>(j)];
    if (vstat_[static_cast<std::size_t>(j)] == VStat::Lower && dj < -kDualTol) {
      if (!std::isfinite(ub_[static_cast<std::size_t>(j)]))
        return std::nullopt;
      const double delta =
          ub_[static_cast<std::size_t>(j)] - x_[static_cast<std::size_t>(j)];
      x_[static_cast<std::size_t>(j)] = ub_[static_cast<std::size_t>(j)];
      vstat_[static_cast<std::size_t>(j)] = VStat::Upper;
      if (delta != 0.0) addColumnTimes(j, delta);
    } else if (vstat_[static_cast<std::size_t>(j)] == VStat::Upper &&
               dj > kDualTol) {
      if (!std::isfinite(lb_[static_cast<std::size_t>(j)]))
        return std::nullopt;
      const double delta =
          lb_[static_cast<std::size_t>(j)] - x_[static_cast<std::size_t>(j)];
      x_[static_cast<std::size_t>(j)] = lb_[static_cast<std::size_t>(j)];
      vstat_[static_cast<std::size_t>(j)] = VStat::Lower;
      if (delta != 0.0) addColumnTimes(j, delta);
    } else if (vstat_[static_cast<std::size_t>(j)] == VStat::Free &&
               std::abs(dj) > kDualTol) {
      return std::nullopt;
    }
  }

  if (any_delta) {
    lu_.ftran(agg);  // agg becomes B^{-1} N delta, by position
    for (int i = 0; i < m_; ++i)
      x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
          agg[static_cast<std::size_t>(i)];
  }

  // Re-optimize with the dual simplex. A healthy warm re-solve takes a
  // handful of pivots, and large best-first jumps legitimately need more,
  // so the cap scales with the model.
  const std::int64_t cap = 1000 + 4LL * (m_ + total_);
  const DualStatus status = dualIterate(cap);
  if (status == DualStatus::OutOfTime) {
    // The basis stays dual-feasible, so a later solve could resume from it;
    // there is no cold fallback, because it would be out of time too.
    return outcome(LpStatus::IterLimit);
  }
  if (status == DualStatus::Stalled) {
    // Degenerate-pivot stall aborts the warm re-solve; the caller falls
    // back to a cold solve (surfacing as a WarmMiss in the lane's stats).
    if (flight_)
      flight_->record(obs::FlightEventKind::DualStall, -1,
                      static_cast<double>(call_iterations_));
    return std::nullopt;
  }
  if (status == DualStatus::Infeasible) {
    // The basis stays dual-feasible, so the engine remains warm-startable.
    return outcome(LpStatus::Infeasible);
  }
  if (status == DualStatus::Unbounded) {
    ready_ = false;
    return outcome(LpStatus::Unbounded);
  }

  // Post-solve drift scan (cheap O(n)): dual pivots should have preserved
  // the reduced-cost sign conditions; rescue via cold solve if they did not.
  for (int j = 0; j < total_; ++j) {
    if (pos_of_[static_cast<std::size_t>(j)] >= 0 || fixedCol(j)) continue;
    const double dj = d_[static_cast<std::size_t>(j)];
    switch (vstat_[static_cast<std::size_t>(j)]) {
      case VStat::Lower:
        if (dj < -1e-6) return std::nullopt;
        break;
      case VStat::Upper:
        if (dj > 1e-6) return std::nullopt;
        break;
      case VStat::Free:
        if (std::abs(dj) > 1e-6) return std::nullopt;
        break;
      case VStat::Basic:
        break;
    }
  }
  return optimalResult();
}

// ---- iteration cores -----------------------------------------------------

void RevisedSimplex::collectArtificial() {
  widen_.clear();
  for (int j = 0; j < n_; ++j)
    if (restsOnArtificialBound(j)) widen_.push_back(j);
}

bool RevisedSimplex::planWidening() {
  // Every listed column moves outward by the same step, (growth - 1) times
  // the largest magnitude among them; alpha_ gets B^{-1} times the sum of
  // their outward unit moves.
  double reach = 0.0;
  for (const int j : widen_)
    reach = std::max(reach, std::abs(x_[static_cast<std::size_t>(j)]));
  widen_step_ = reach * (kArtificialGrowth - 1.0);
  alpha_.assign(static_cast<std::size_t>(m_), 0.0);
  for (const int j : widen_) {
    const double dir =
        vstat_[static_cast<std::size_t>(j)] == VStat::Upper ? 1.0 : -1.0;
    for (int k = csc_.col_start[static_cast<std::size_t>(j)];
         k < csc_.col_start[static_cast<std::size_t>(j) + 1]; ++k)
      alpha_[static_cast<std::size_t>(
          csc_.row_index[static_cast<std::size_t>(k)])] +=
          csc_.value[static_cast<std::size_t>(k)] * dir;
  }
  lu_.ftran(alpha_);
  return reach + widen_step_ <= kArtificialCap;
}

bool RevisedSimplex::rayBlocked() const {
  for (int i = 0; i < m_; ++i) {
    const double move = -alpha_[static_cast<std::size_t>(i)];
    if (std::abs(move) <= kEps) continue;
    const int p = basis_[static_cast<std::size_t>(i)];
    const double bound = move > 0.0 ? ub_[static_cast<std::size_t>(p)]
                                    : lb_[static_cast<std::size_t>(p)];
    if (std::isfinite(bound)) return true;
  }
  return false;
}

void RevisedSimplex::applyWidening() {
  widened_ = true;
  for (const int j : widen_) {
    const auto col = static_cast<std::size_t>(j);
    if (vstat_[col] == VStat::Upper) {
      x_[col] += widen_step_;
      ub_[col] = x_[col];
    } else {
      x_[col] -= widen_step_;
      lb_[col] = x_[col];
    }
  }
  for (int i = 0; i < m_; ++i)
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
        alpha_[static_cast<std::size_t>(i)] * widen_step_;
}

RevisedSimplex::DualStatus RevisedSimplex::dualIterate(std::int64_t cap) {
  const std::int64_t bland_threshold = blandThreshold();
  std::int64_t local = 0;
  int retries = 0;

  while (true) {
    if (local >= cap) return DualStatus::Stalled;
    if (pastDeadline()) return DualStatus::OutOfTime;
    const bool bland = local > bland_threshold;

    // Leaving row by dual devex pricing: the basic variable whose bound
    // violation maximizes viol^2 / weight (Bland mode takes the smallest
    // violated row instead, for termination under degeneracy).
    int r = -1;
    bool above = false;
    double best_score = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int p = basis_[static_cast<std::size_t>(i)];
      const double v = x_[static_cast<std::size_t>(p)];
      double viol = lb_[static_cast<std::size_t>(p)] - v;
      bool up = false;
      const double over = v - ub_[static_cast<std::size_t>(p)];
      if (over > viol) {
        viol = over;
        up = true;
      }
      if (viol <= kFeasibilityTol) continue;
      const double score = viol * viol / weight_[static_cast<std::size_t>(i)];
      if (score > best_score) {
        r = i;
        above = up;
        if (bland) break;
        best_score = score;
      }
    }
    if (r < 0) {
      // Optimal under the engine's bounds. Columns resting on artificial
      // bounds with nonzero reduced costs still pull outward. If moving
      // every column off its artificial bound, all at one rate, drives no
      // basic column toward a finite bound, that ray lowers the objective
      // forever: Unbounded. Otherwise the bounds move out and the dual
      // simplex goes on.
      collectArtificial();
      bool pulled = false;
      for (const int j : widen_)
        if (std::abs(d_[static_cast<std::size_t>(j)]) > kDualTol) pulled = true;
      if (!pulled) return DualStatus::Optimal;
      const bool room = planWidening();
      if (!rayBlocked()) return DualStatus::Unbounded;
      if (!room) return DualStatus::Stalled;
      applyWidening();
      continue;
    }
    const int p = basis_[static_cast<std::size_t>(r)];

    pivotRow(r, &rho_);
    const std::vector<double>& row = pricer_.row();

    // Dual ratio test over sign-eligible columns. With the row normalized
    // by sgn (+1 when the leaving variable is above its upper bound, -1
    // below its lower), an at-lower column needs a positive normalized
    // entry to help, an at-upper column a negative one, and dual
    // feasibility survives exactly for the minimum-ratio column (ties:
    // larger |entry|, or smaller index under Bland). No candidate means the
    // row proves primal infeasibility. A column outside the pricer's
    // candidates has a +-0 entry and is never eligible; the candidates
    // ascend, so ties break as in a scan over every column.
    const double sgn = above ? 1.0 : -1.0;
    int q = -1;
    double best_ratio = kInfinity;
    double best_mag = 0.0;
    for (const int j : pricer_.candidates()) {
      if (pos_of_[static_cast<std::size_t>(j)] >= 0 || fixedCol(j)) continue;
      const double ahat = sgn * row[static_cast<std::size_t>(j)];
      bool eligible = false;
      switch (vstat_[static_cast<std::size_t>(j)]) {
        case VStat::Lower:
          eligible = ahat > kEps;
          break;
        case VStat::Upper:
          eligible = ahat < -kEps;
          break;
        case VStat::Free:
          eligible = std::abs(ahat) > kEps;
          break;
        case VStat::Basic:
          break;
      }
      if (!eligible) continue;
      double ratio = d_[static_cast<std::size_t>(j)] / ahat;
      if (ratio < 0.0) ratio = 0.0;  // dual-feasibility noise
      const bool strictly_better = ratio < best_ratio - kEps;
      const bool tie = !strictly_better && ratio <= best_ratio + kEps &&
                       q >= 0 &&
                       (bland ? j < q : std::abs(ahat) > best_mag);
      if (strictly_better || q < 0 || tie) {
        best_ratio = std::min(ratio, best_ratio);
        q = j;
        best_mag = std::abs(ahat);
      }
    }
    if (q < 0) {
      // The row proves infeasibility only if every column that would help
      // is stopped by a real bound. If one resting on an artificial bound
      // would help by crossing it, the artificial bounds move out instead.
      collectArtificial();
      bool helped = false;
      for (const int j : widen_) {
        const double ahat = sgn * row[static_cast<std::size_t>(j)];
        if (vstat_[static_cast<std::size_t>(j)] == VStat::Upper ? ahat > kEps
                                                                : ahat < -kEps)
          helped = true;
      }
      if (!helped) {
        // A widening puts large magnitudes into the updated basic values;
        // after one, a verdict stands only on fresh factors.
        if (!widened_ || lu_.updates() == 0) return DualStatus::Infeasible;
        if (!refactor()) return DualStatus::Stalled;
        continue;
      }
      if (!planWidening()) return DualStatus::Stalled;
      applyWidening();
      continue;
    }

    ftranColumn(q, &alpha_);
    const double piv = alpha_[static_cast<std::size_t>(r)];
    if (std::abs(piv) < kEps) {
      // FTRAN disagrees with the priced row — stale factors; re-anchor.
      if (++retries > 3 || !refactor()) return DualStatus::Stalled;
      continue;
    }
    retries = 0;

    // Primal step: drive the leaving variable exactly onto its violated
    // bound; the entering variable absorbs the move. The devex weights ride
    // the same pass over the entering column: row i's reference weight
    // grows to (alpha_i / alpha_r)^2 w_r when that is larger.
    const double target = above ? ub_[static_cast<std::size_t>(p)]
                                : lb_[static_cast<std::size_t>(p)];
    const double tq = (x_[static_cast<std::size_t>(p)] - target) / piv;
    const double wr = weight_[static_cast<std::size_t>(r)];
    bool blown = false;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double a = alpha_[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
          tq * a;
      const double ref = (a / piv) * (a / piv) * wr;
      if (ref > weight_[static_cast<std::size_t>(i)]) {
        weight_[static_cast<std::size_t>(i)] = ref;
        if (ref > kWeightReset) blown = true;
      }
    }
    weight_[static_cast<std::size_t>(r)] = std::max(wr / (piv * piv), 1.0);
    if (blown || weight_[static_cast<std::size_t>(r)] > kWeightReset)
      weight_.assign(static_cast<std::size_t>(m_), 1.0);
    const double xq_new = x_[static_cast<std::size_t>(q)] + tq;
    const double theta = d_[static_cast<std::size_t>(q)] / piv;

    x_[static_cast<std::size_t>(p)] = target;
    x_[static_cast<std::size_t>(q)] = xq_new;
    basis_[static_cast<std::size_t>(r)] = q;
    pos_of_[static_cast<std::size_t>(q)] = r;
    pos_of_[static_cast<std::size_t>(p)] = -1;
    vstat_[static_cast<std::size_t>(q)] = VStat::Basic;
    vstat_[static_cast<std::size_t>(p)] = above ? VStat::Upper : VStat::Lower;
    if (q < n_) {
      // A basic column carries only real bounds, so every bound a leaving
      // column lands on is real.
      const auto col = static_cast<std::size_t>(q);
      lb_[col] = cur_lower_[col];
      ub_[col] = cur_upper_[col];
    }
    ++call_iterations_;
    ++local;

    bool refreshed = false;
    if (lu_.updates() + 1 >= kRefactorInterval || !lu_.update(r, alpha_)) {
      if (!refactor()) return DualStatus::Stalled;
      refreshed = true;
    }
    if (!refreshed) {
      // Incremental reduced-cost update from the priced pivot row; a
      // column outside its candidates has a +-0 entry and keeps its d_j.
      for (const int j : pricer_.candidates()) {
        if (pos_of_[static_cast<std::size_t>(j)] >= 0 || j == p) continue;
        const double arj = row[static_cast<std::size_t>(j)];
        if (arj != 0.0) d_[static_cast<std::size_t>(j)] -= theta * arj;
      }
      d_[static_cast<std::size_t>(p)] = -theta;
      d_[static_cast<std::size_t>(q)] = 0.0;
    }
  }
}

void RevisedSimplex::addCutRows(const std::vector<CutRow>& rows) {
  if (rows.empty()) return;
  const int added = static_cast<int>(rows.size());
  const int old_m = m_;

  for (const CutRow& row : rows) {
    rhs_.push_back(row.rhs);
    switch (row.sense) {
      case Sense::LessEqual:
        slack_lb_.push_back(0.0);
        slack_ub_.push_back(kInfinity);
        break;
      case Sense::GreaterEqual:
        slack_lb_.push_back(-kInfinity);
        slack_ub_.push_back(0.0);
        break;
      case Sense::Equal:
        slack_lb_.push_back(0.0);
        slack_ub_.push_back(0.0);
        break;
    }
  }

  appendCutRows(rows, &csc_, &csr_);

  m_ += added;
  total_ = n_ + m_;
  alpha_.resize(static_cast<std::size_t>(m_));
  rho_.resize(static_cast<std::size_t>(m_));

  // Extend the loaded state, if any: each new slack enters the basis at the
  // value its row activity dictates, with reduced cost 0. Block structure
  // makes this exact — the extended basis is [[B, 0], [C, I]], so the old
  // duals and basic values are untouched and the new rows' duals are 0:
  // the state stays dual-feasible and only the new slacks may sit out of
  // bounds, which the next warm dual re-solve drives out.
  if (!vstat_.empty()) {
    for (int k = 0; k < added; ++k) {
      const int row = old_m + k;
      const int s = n_ + row;
      double activity = 0.0;
      for (const auto& [v, c] : rows[static_cast<std::size_t>(k)].terms)
        if (v >= 0 && v < n_) activity += c * x_[static_cast<std::size_t>(v)];
      lb_.push_back(slack_lb_[static_cast<std::size_t>(row)]);
      ub_.push_back(slack_ub_[static_cast<std::size_t>(row)]);
      vstat_.push_back(VStat::Basic);
      x_.push_back(rhs_[static_cast<std::size_t>(row)] - activity);
      d_.push_back(0.0);
      basis_.push_back(s);
      pos_of_.push_back(row);
      weight_.push_back(1.0);
    }
    if (ready_ && !refactor()) ready_ = false;
  }
}

std::vector<double> RevisedSimplex::extractValues() const {
  std::vector<double> values(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j)
    values[static_cast<std::size_t>(j)] = x_[static_cast<std::size_t>(j)];
  return values;
}

void RevisedSimplex::collectReducedCostFixes(double gap,
                                             std::vector<Fix>* out) const {
  if (!ready_ || !std::isfinite(gap)) return;
  for (int j = 0; j < n_; ++j) {
    if (pos_of_[static_cast<std::size_t>(j)] >= 0) continue;
    if (model_.var(j).type == VarType::Continuous) continue;
    if (fixedCol(j) || restsOnArtificialBound(j)) continue;
    // Nonbasic at a bound: moving the variable by one integer step costs at
    // least |reduced cost|, so a margin above the incumbent gap proves no
    // improving solution moves it.
    double margin = 0.0;
    switch (vstat_[static_cast<std::size_t>(j)]) {
      case VStat::Lower:
        margin = d_[static_cast<std::size_t>(j)];
        break;
      case VStat::Upper:
        margin = -d_[static_cast<std::size_t>(j)];
        break;
      default:
        continue;
    }
    if (margin <= gap + 1e-6) continue;
    const double value = x_[static_cast<std::size_t>(j)];
    // Only fix to (near-)integral bounds — an unattainable fractional bound
    // would invalidate the one-integer-step cost argument.
    if (std::abs(value - std::round(value)) > kIntegralityTol) continue;
    out->push_back(Fix{j, std::round(value)});
  }
}

}  // namespace pdw::ilp
