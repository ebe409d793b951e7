#include "reference_lp.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace pdw::ilp::reference {
namespace {

constexpr double kPivotTol = 1e-9;   ///< smallest usable pivot element
constexpr double kCostTol = 1e-9;    ///< most negative non-improving cost
constexpr double kRatioTol = 1e-12;  ///< ratio-test limits this close tie
constexpr double kFeasTol = 1e-7;    ///< accepted phase-1 residual (scaled)
constexpr int kDegenerateRun = 50;   ///< degenerate pivots before Bland

/// Dense tableau over columns x' in [0, ub] (structural, then slacks, then
/// artificials). Rows 0..m-1 are the constraints, with the value of their
/// basic column in the last entry. Row m is the phase-2 objective and row
/// m+1 the phase-1 objective, both held as reduced costs d and a value v
/// with z = -v + sum_j d_j x'_j, so pivots and bound flips update them
/// exactly like constraint rows. A nonbasic column always rests at 0: one
/// that reaches its upper bound is complemented (x' = ub - x'').
struct Tableau {
  Tableau(int rows, int cols)
      : m(rows), n(cols), cells(std::size_t(rows + 2) * (cols + 1), 0.0),
        ub(cols, kInfinity), basis(rows, -1), basic(cols, 0) {}

  double* row(int i) { return cells.data() + std::size_t(i) * (n + 1); }
  double& rhs(int i) { return row(i)[n]; }

  /// Primal simplex on objective row `obj`: Dantzig pricing, switching to
  /// Bland's rule (lowest index enters, lowest basic index leaves on ties)
  /// after a run of degenerate pivots, which rules out cycling.
  LpStatus optimize(int obj) {
    bool bland = false;
    int degenerate = 0;
    for (long iter = 0; iter < 50L * (m + n) + 1000; ++iter) {
      const double* d = row(obj);
      int q = -1;
      double best = -kCostTol;
      for (int j = 0; j < n; ++j) {
        if (basic[j] || ub[j] <= 0.0 || d[j] >= best) continue;
        q = j;
        if (bland) break;
        best = d[j];
      }
      if (q < 0) return LpStatus::Optimal;

      // Ratio test: x'_q grows until a basic column hits a bound or x'_q
      // hits its own upper bound. Limits within kRatioTol of the minimum
      // tie; ties go to the lowest basic index under Bland's rule, else to
      // the largest pivot element.
      double step = ub[q];
      limits.assign(m, kInfinity);
      for (int i = 0; i < m; ++i) {
        const double a = row(i)[q];
        const double cap = ub[basis[i]];
        if (a > kPivotTol) limits[i] = std::max(rhs(i), 0.0) / a;
        else if (a < -kPivotTol && std::isfinite(cap))
          limits[i] = std::max(cap - rhs(i), 0.0) / -a;
        step = std::min(step, limits[i]);
      }
      int r = -1;
      for (int i = 0; i < m; ++i) {
        if (limits[i] > step + kRatioTol) continue;
        if (r < 0 || (bland ? basis[i] < basis[r]
                            : std::abs(row(i)[q]) > std::abs(row(r)[q])))
          r = i;
      }
      if (ub[q] <= step) r = -1;  // x'_q reaches its own bound first
      if (r < 0) {
        if (!std::isfinite(step)) return LpStatus::Unbounded;
        flip(q);
        continue;
      }
      const bool to_upper = row(r)[q] < 0.0;
      const int leaving = basis[r];
      pivot(r, q);
      if (to_upper) flip(leaving);
      degenerate = step > kPivotTol ? 0 : degenerate + 1;
      if (degenerate > kDegenerateRun) bland = true;
    }
    return LpStatus::IterLimit;
  }

  /// Complement nonbasic column j: x'_j = ub_j - x''_j.
  void flip(int j) {
    for (int i = 0; i < m + 2; ++i) {
      double& a = row(i)[j];
      if (a == 0.0) continue;
      rhs(i) -= a * ub[j];
      a = -a;
    }
  }

  void pivot(int r, int q) {
    double* pr = row(r);
    const double inv = 1.0 / pr[q];
    nonzeros.clear();
    for (int k = 0; k <= n; ++k) {
      if (pr[k] == 0.0) continue;
      pr[k] *= inv;
      nonzeros.push_back(k);
    }
    pr[q] = 1.0;
    for (int i = 0; i < m + 2; ++i) {
      double* pi = row(i);
      const double f = pi[q];
      if (i == r || f == 0.0) continue;
      for (const int k : nonzeros) pi[k] -= f * pr[k];
      pi[q] = 0.0;
    }
    basic[basis[r]] = 0;
    basic[q] = 1;
    basis[r] = q;
  }

  int m, n;
  std::vector<double> cells;
  std::vector<double> ub;      ///< per column
  std::vector<int> basis;      ///< per constraint row
  std::vector<char> basic;     ///< per column
  std::vector<int> nonzeros;   ///< pivot-row scratch
  std::vector<double> limits;  ///< ratio-test scratch
};

}  // namespace

LpOutcome referenceLp(const Model& model, const std::vector<double>& lower,
                      const std::vector<double>& upper) {
  // Substitute x_j = shift_j + sign * x' with x' in [0, ub]; a free
  // variable becomes the difference of two such columns, [first[j],
  // first[j+1]) being the columns of variable j.
  struct Column {
    VarId var;
    double sign, ub;
  };
  const int n = model.numVars();
  std::vector<Column> cols;
  std::vector<double> shift(n, 0.0);
  std::vector<int> first(n + 1, 0);
  for (VarId j = 0; j < n; ++j) {
    const double lo = lower[j], hi = upper[j];
    if (lo > hi) return {LpStatus::Infeasible, 0.0};
    first[j] = static_cast<int>(cols.size());
    if (std::isfinite(lo)) {
      shift[j] = lo;
      cols.push_back({j, 1.0, hi - lo});
    } else if (std::isfinite(hi)) {
      shift[j] = hi;
      cols.push_back({j, -1.0, kInfinity});
    } else {
      cols.push_back({j, 1.0, kInfinity});
      cols.push_back({j, -1.0, kInfinity});
    }
  }
  first[n] = static_cast<int>(cols.size());

  // Each row is scaled by +-1 to a nonnegative right-hand side; a row whose
  // slack cannot start basic (an equality, or a slack coefficient of -1
  // after scaling) gets an artificial.
  const int m = model.numConstraints();
  const int structural = first[n];
  std::vector<double> sign(m), slack(m), b(m);
  int slacks = 0, artificials = 0;
  double b_max = 0.0;
  for (int i = 0; i < m; ++i) {
    const Constraint& c = model.constraint(i);
    double r = c.rhs;
    for (const auto& [v, a] : c.expr.terms()) r -= a * shift[v];
    slack[i] = c.sense == Sense::LessEqual      ? 1.0
               : c.sense == Sense::GreaterEqual ? -1.0
                                                : 0.0;
    sign[i] = r < 0.0 ? -1.0 : 1.0;
    b[i] = sign[i] * r;
    b_max = std::max(b_max, b[i]);
    slacks += slack[i] != 0.0 ? 1 : 0;
    artificials += sign[i] * slack[i] != 1.0 ? 1 : 0;
  }

  Tableau t(m, structural + slacks + artificials);
  int next_slack = structural, next_art = structural + slacks;
  for (int i = 0; i < m; ++i) {
    double* row = t.row(i);
    for (const auto& [v, a] : model.constraint(i).expr.terms())
      for (int c = first[v]; c < first[v + 1]; ++c)
        row[c] += sign[i] * a * cols[c].sign;
    t.rhs(i) = b[i];
    if (slack[i] != 0.0) {
      row[next_slack] = sign[i] * slack[i];
      if (row[next_slack] == 1.0) t.basis[i] = next_slack;
      ++next_slack;
    }
    if (t.basis[i] < 0) {
      row[next_art] = 1.0;
      t.basis[i] = next_art++;
      // Phase-1 objective: minimize the artificials, priced out of the
      // starting basis by subtracting their rows.
      double* w = t.row(m + 1);
      for (int k = 0; k <= t.n; ++k) w[k] -= row[k];
      w[t.basis[i]] = 0.0;
    }
    t.basic[t.basis[i]] = 1;
  }
  for (int c = 0; c < structural; ++c) t.ub[c] = cols[c].ub;

  double constant = model.objective().constant();
  for (const auto& [v, a] : model.objective().terms()) {
    constant += a * shift[v];
    for (int c = first[v]; c < first[v + 1]; ++c)
      t.row(m)[c] += a * cols[c].sign;
  }
  t.rhs(m) = -constant;

  const LpStatus phase1 = t.optimize(m + 1);
  if (phase1 != LpStatus::Optimal) return {phase1, 0.0};
  if (-t.rhs(m + 1) > kFeasTol * (1.0 + b_max))
    return {LpStatus::Infeasible, 0.0};
  // Artificials may stay basic at 0 on redundant rows; a zero upper bound
  // keeps them there and out of pricing.
  for (int c = structural + slacks; c < t.n; ++c) t.ub[c] = 0.0;
  const LpStatus phase2 = t.optimize(m);
  return {phase2, phase2 == LpStatus::Optimal ? -t.rhs(m) : 0.0};
}

LpOutcome referenceLp(const Model& model) {
  std::vector<double> lower, upper;
  for (const Variable& v : model.vars()) {
    lower.push_back(v.lower);
    upper.push_back(v.upper);
  }
  return referenceLp(model, lower, upper);
}

std::optional<double> enumerateIntegerOptimum(const Model& model) {
  // Odometer over the box with row activities and the objective updated
  // incrementally, so each point costs O(rows).
  const int n = model.numVars();
  const int m = model.numConstraints();
  std::vector<double> x(n), cost(n, 0.0), activity(m, 0.0);
  std::vector<double> coef(std::size_t(n) * m, 0.0);  // column-major
  for (VarId j = 0; j < n; ++j) x[j] = std::ceil(model.var(j).lower);
  for (int i = 0; i < m; ++i)
    for (const auto& [v, a] : model.constraint(i).expr.terms()) {
      coef[std::size_t(v) * m + i] += a;
      activity[i] += a * x[v];
    }
  double objective = model.objective().constant();
  for (const auto& [v, a] : model.objective().terms()) {
    cost[v] += a;
    objective += a * x[v];
  }
  const auto move = [&](int j, double delta) {
    x[j] += delta;
    objective += cost[j] * delta;
    for (int i = 0; i < m; ++i)
      activity[i] += coef[std::size_t(j) * m + i] * delta;
  };

  std::optional<double> best;
  for (;;) {
    bool feasible = true;
    for (int i = 0; i < m && feasible; ++i) {
      const Constraint& c = model.constraint(i);
      const double excess = activity[i] - c.rhs;
      feasible = c.sense == Sense::LessEqual      ? excess <= 1e-9
                 : c.sense == Sense::GreaterEqual ? excess >= -1e-9
                                                  : std::abs(excess) <= 1e-9;
    }
    if (feasible && (!best || objective < *best)) best = objective;
    int j = 0;
    while (j < n && x[j] + 1.0 > model.var(j).upper) {
      move(j, std::ceil(model.var(j).lower) - x[j]);  // wrap to the lower end
      ++j;
    }
    if (j == n) return best;
    move(j, 1.0);
  }
}

}  // namespace pdw::ilp::reference
