#include "ilp/presolve.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace pdw::ilp {

namespace {

constexpr double kFeasibilityTol = 1e-7;
/// Rounds of propagation + coefficient strengthening before probing.
constexpr int kMaxRounds = 10;
/// Probing work caps: binaries probed (both directions each), and row
/// relaxations (worklist pops) per probe.
constexpr int kProbeVarLimit = 2000;
constexpr int kProbeRowLimit = 20000;

/// Scratch bounds presolve operates on; written back to the model once at
/// the end (and thrown away entirely for probe branches).
struct Bounds {
  std::vector<double> lower, upper;
};

struct Activity {
  double min = 0.0;
  double max = 0.0;
  bool min_finite = true;
  bool max_finite = true;
};

Activity rowActivity(const Constraint& c, const Bounds& b) {
  Activity activity;
  for (const auto& [var, coeff] : c.expr.terms()) {
    const double lo = b.lower[static_cast<std::size_t>(var)];
    const double hi = b.upper[static_cast<std::size_t>(var)];
    const double lo_term = coeff > 0 ? coeff * lo : coeff * hi;
    const double hi_term = coeff > 0 ? coeff * hi : coeff * lo;
    if (std::isfinite(lo_term)) activity.min += lo_term;
    else activity.min_finite = false;
    if (std::isfinite(hi_term)) activity.max += hi_term;
    else activity.max_finite = false;
  }
  return activity;
}

/// Working storage that every propagate() of one presolve() call reuses.
struct PropagateScratch {
  std::vector<char> queued;   ///< per row; all 0 between calls
  std::vector<int> queue;
  std::vector<char> integer;  ///< per variable: not Continuous
};

/// The worklist loop of propagate(), over the rows queued in `scratch`.
bool drainQueue(const Model& model,
                const std::vector<std::vector<int>>& rows_of_var,
                Bounds& bounds, double tol, int max_pops, int* tightened,
                PropagateScratch& scratch) {
  std::vector<char>& queued = scratch.queued;
  std::vector<int>& queue = scratch.queue;
  int pops = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (max_pops > 0 && ++pops > max_pops) break;  // budget: stop, stay valid
    const int ci = queue[head];
    queued[static_cast<std::size_t>(ci)] = 0;
    const Constraint& c = model.constraint(ci);
    const Activity activity = rowActivity(c, bounds);

    if (c.sense != Sense::GreaterEqual && activity.min_finite &&
        activity.min > c.rhs + tol)
      return false;
    if (c.sense != Sense::LessEqual && activity.max_finite &&
        activity.max < c.rhs - tol)
      return false;

    for (const auto& [var, coeff] : c.expr.terms()) {
      const std::size_t v = static_cast<std::size_t>(var);
      const bool integer = scratch.integer[v] != 0;
      double new_lower = bounds.lower[v];
      double new_upper = bounds.upper[v];

      const double own_min =
          coeff > 0 ? coeff * bounds.lower[v] : coeff * bounds.upper[v];
      const double own_max =
          coeff > 0 ? coeff * bounds.upper[v] : coeff * bounds.lower[v];
      const bool others_min_finite =
          activity.min_finite && std::isfinite(own_min);
      const bool others_max_finite =
          activity.max_finite && std::isfinite(own_max);
      const double others_min =
          others_min_finite ? activity.min - own_min : 0.0;
      const double others_max =
          others_max_finite ? activity.max - own_max : 0.0;

      if (c.sense != Sense::GreaterEqual && others_min_finite) {
        // a_j x_j <= rhs - others_min
        const double budget = c.rhs - others_min;
        if (coeff > 0) {
          double candidate = budget / coeff;
          if (integer) candidate = std::floor(candidate + tol);
          new_upper = std::min(new_upper, candidate);
        } else {
          double candidate = budget / coeff;
          if (integer) candidate = std::ceil(candidate - tol);
          new_lower = std::max(new_lower, candidate);
        }
      }
      if (c.sense != Sense::LessEqual && others_max_finite) {
        // a_j x_j >= rhs - others_max
        const double budget = c.rhs - others_max;
        if (coeff > 0) {
          double candidate = budget / coeff;
          if (integer) candidate = std::ceil(candidate - tol);
          new_lower = std::max(new_lower, candidate);
        } else {
          double candidate = budget / coeff;
          if (integer) candidate = std::floor(candidate + tol);
          new_upper = std::min(new_upper, candidate);
        }
      }

      if (new_lower > new_upper + tol) return false;
      new_upper = std::max(new_upper, new_lower);  // clamp tiny crossings
      if (new_lower > bounds.lower[v] + 1e-12 ||
          new_upper < bounds.upper[v] - 1e-12) {
        bounds.lower[v] = new_lower;
        bounds.upper[v] = new_upper;
        if (tightened) ++*tightened;
        for (int r : rows_of_var[v]) {
          if (!queued[static_cast<std::size_t>(r)]) {
            queued[static_cast<std::size_t>(r)] = 1;
            queue.push_back(r);
          }
        }
      }
    }
  }
  return true;
}

/// Worklist bound propagation over `bounds`. Seeded with `seed` rows;
/// tightening a variable re-queues every row it appears in. Returns false
/// on proven infeasibility. `max_pops <= 0` means unbounded.
bool propagate(const Model& model,
               const std::vector<std::vector<int>>& rows_of_var,
               Bounds& bounds, const std::vector<int>& seed, double tol,
               int max_pops, int* tightened, PropagateScratch& scratch) {
  const int num_rows = model.numConstraints();
  std::vector<char>& queued = scratch.queued;
  std::vector<int>& queue = scratch.queue;
  queue.clear();
  for (int r : seed) {
    if (r < num_rows && !queued[static_cast<std::size_t>(r)]) {
      queued[static_cast<std::size_t>(r)] = 1;
      queue.push_back(r);
    }
  }
  const bool feasible =
      drainQueue(model, rows_of_var, bounds, tol, max_pops, tightened, scratch);
  // Rows still queued when the loop stopped leave their flags behind.
  for (const int r : queue) queued[static_cast<std::size_t>(r)] = 0;
  return feasible;
}

bool isUnfixedBinary(const Model& model, const Bounds& b, VarId var,
                     double tol) {
  return model.var(var).type != VarType::Continuous &&
         b.lower[static_cast<std::size_t>(var)] > -tol &&
         b.upper[static_cast<std::size_t>(var)] < 1.0 + tol &&
         b.upper[static_cast<std::size_t>(var)] -
                 b.lower[static_cast<std::size_t>(var)] >
             tol;
}

/// Big-M coefficient strengthening over one inequality row, both
/// orientations handled by pre-negating GreaterEqual rows. Returns the
/// number of coefficients shrunk (the model is mutated in place).
int strengthenRow(Model& model, ConstraintId ci, const Bounds& bounds,
                  double tol) {
  const Constraint& c = model.constraint(ci);
  if (c.sense == Sense::Equal) return 0;
  const double flip = c.sense == Sense::GreaterEqual ? -1.0 : 1.0;

  int changed = 0;
  // Terms are re-read each iteration: a strengthening changes the row.
  for (std::size_t k = 0; k < model.constraint(ci).expr.terms().size(); ++k) {
    const auto [var, raw_coeff] = model.constraint(ci).expr.terms()[k];
    if (!isUnfixedBinary(model, bounds, var, tol)) continue;
    const double a = flip * raw_coeff;
    const double b = flip * model.constraint(ci).rhs;

    // Max activity of the other terms (<= orientation); must be finite.
    Activity activity = rowActivity(model.constraint(ci), bounds);
    if (flip < 0) {
      std::swap(activity.min, activity.max);
      std::swap(activity.min_finite, activity.max_finite);
      activity.min = -activity.min;
      activity.max = -activity.max;
    }
    const double own_max = std::max(a * 0.0, a * 1.0);
    if (!activity.max_finite) continue;
    const double others_max = activity.max - own_max;

    if (a > tol) {
      // Slack when x=0: d = b - others_max. If 0 < d < a, both the
      // coefficient and the rhs shrink by d; the x=1 face is unchanged and
      // the x=0 face becomes exactly the activity bound.
      const double d = b - others_max;
      if (d > tol && a > d + tol) {
        model.setConstraintCoefficient(ci, var, flip * (a - d));
        model.setConstraintRhs(ci, flip * (b - d));
        ++changed;
      }
    } else if (a < -tol) {
      // Slack when x=1: d = (b - a) - others_max. The coefficient rises
      // toward 0 by d; rhs unchanged, x=0 face unchanged.
      const double d = (b - a) - others_max;
      if (d > tol) {
        const double na = std::min(a + d, 0.0);
        model.setConstraintCoefficient(ci, var, flip * na);
        ++changed;
        if (na == 0.0) --k;  // term removed; re-examine this slot
      }
    }
  }
  return changed;
}

std::vector<std::vector<int>> buildAdjacency(const Model& model) {
  std::vector<std::vector<int>> rows_of_var(
      static_cast<std::size_t>(model.numVars()));
  for (int ci = 0; ci < model.numConstraints(); ++ci)
    for (const auto& [var, coeff] : model.constraint(ci).expr.terms()) {
      (void)coeff;
      rows_of_var[static_cast<std::size_t>(var)].push_back(ci);
    }
  return rows_of_var;
}

std::vector<int> allRows(const Model& model) {
  std::vector<int> rows(static_cast<std::size_t>(model.numConstraints()));
  for (int ci = 0; ci < model.numConstraints(); ++ci)
    rows[static_cast<std::size_t>(ci)] = ci;
  return rows;
}

}  // namespace

PresolveResult presolve(Model& model) {
  PresolveResult result;
  const double tol = kFeasibilityTol;

  Bounds bounds;
  bounds.lower.resize(static_cast<std::size_t>(model.numVars()));
  bounds.upper.resize(static_cast<std::size_t>(model.numVars()));
  for (VarId v = 0; v < model.numVars(); ++v) {
    bounds.lower[static_cast<std::size_t>(v)] = model.var(v).lower;
    bounds.upper[static_cast<std::size_t>(v)] = model.var(v).upper;
  }
  std::vector<std::vector<int>> rows_of_var = buildAdjacency(model);
  PropagateScratch scratch;
  scratch.queued.assign(static_cast<std::size_t>(model.numConstraints()), 0);
  scratch.integer.resize(static_cast<std::size_t>(model.numVars()));
  for (VarId v = 0; v < model.numVars(); ++v)
    scratch.integer[static_cast<std::size_t>(v)] =
        model.var(v).type != VarType::Continuous;

  // Alternate propagation and coefficient strengthening to a joint
  // fixpoint: each strengthening changes activities, which can unlock more
  // bound tightening, and vice versa.
  for (int round = 0; round < kMaxRounds; ++round) {
    result.rounds = round + 1;
    int tightened = 0;
    if (!propagate(model, rows_of_var, bounds, allRows(model), tol,
                   /*max_pops=*/0, &tightened, scratch)) {
      result.infeasible = true;
      return result;
    }
    result.bounds_tightened += tightened;

    int strengthened = 0;
    for (int ci = 0; ci < model.numConstraints(); ++ci)
      strengthened += strengthenRow(model, ci, bounds, tol);
    result.coefficients_tightened += strengthened;
    if (tightened == 0 && strengthened == 0) break;
    if (strengthened > 0) rows_of_var = buildAdjacency(model);
  }

  // Probing: fix each binary both ways, propagate each branch in scratch
  // bounds, and harvest permanent fixings (one side infeasible) and
  // branch-joined bounds (both sides feasible).
  {
    Bounds probe0, probe1;
    int probed = 0;
    bool any_probe_change = false;
    for (VarId v = 0; v < model.numVars(); ++v) {
      if (!isUnfixedBinary(model, bounds, v, tol)) continue;
      if (probed >= kProbeVarLimit) break;
      ++probed;
      const std::size_t vi = static_cast<std::size_t>(v);
      const std::vector<int>& seed = rows_of_var[vi];

      probe0 = bounds;
      probe0.lower[vi] = probe0.upper[vi] = 0.0;
      const bool feasible0 = propagate(model, rows_of_var, probe0, seed, tol,
                                       kProbeRowLimit, nullptr,
                                       scratch);
      probe1 = bounds;
      probe1.lower[vi] = probe1.upper[vi] = 1.0;
      const bool feasible1 = propagate(model, rows_of_var, probe1, seed, tol,
                                       kProbeRowLimit, nullptr,
                                       scratch);

      if (!feasible0 && !feasible1) {
        result.infeasible = true;
        return result;
      }
      if (!feasible0 || !feasible1) {
        // One branch dies; adopt the surviving branch's propagated bounds
        // wholesale (they are exactly what the fixing implies).
        bounds = feasible0 ? probe0 : probe1;
        ++result.probed_fixings;
        any_probe_change = true;
        continue;
      }
      // Both branches live: any bound valid in *both* is valid globally.
      for (std::size_t w = 0; w < bounds.lower.size(); ++w) {
        const double nl = std::min(probe0.lower[w], probe1.lower[w]);
        const double nu = std::max(probe0.upper[w], probe1.upper[w]);
        if (nl > bounds.lower[w] + 1e-12 || nu < bounds.upper[w] - 1e-12) {
          bounds.lower[w] = std::max(bounds.lower[w], nl);
          bounds.upper[w] = std::min(bounds.upper[w], nu);
          ++result.probed_bounds;
          any_probe_change = true;
        }
      }
    }
    // Probing-derived bounds can unlock one more propagation fixpoint.
    if (any_probe_change) {
      int tightened = 0;
      if (!propagate(model, rows_of_var, bounds, allRows(model), tol,
                     /*max_pops=*/0, &tightened, scratch)) {
        result.infeasible = true;
        return result;
      }
      result.bounds_tightened += tightened;
    }
  }

  // Write the final bounds back to the model.
  for (VarId v = 0; v < model.numVars(); ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    if (bounds.lower[vi] != model.var(v).lower ||
        bounds.upper[vi] != model.var(v).upper)
      model.setBounds(v, bounds.lower[vi], bounds.upper[vi]);
  }

  // Redundant-row elimination under the final bounds: an inequality whose
  // worst-case activity already satisfies it can never bind, at the root or
  // in any branch-and-bound subtree (branching only tightens bounds, which
  // only shrinks the activity interval). Equalities are never dropped — they
  // pin the solution even when currently satisfied as an interval.
  std::vector<char> drop(static_cast<std::size_t>(model.numConstraints()), 0);
  for (int ci = 0; ci < model.numConstraints(); ++ci) {
    const Constraint& c = model.constraint(ci);
    if (c.sense == Sense::Equal) continue;
    const Activity activity = rowActivity(c, bounds);
    const bool redundant =
        c.sense == Sense::LessEqual
            ? (activity.max_finite && activity.max <= c.rhs + tol)
            : (activity.min_finite && activity.min >= c.rhs - tol);
    if (redundant) drop[static_cast<std::size_t>(ci)] = 1;
  }
  result.rows_removed = model.removeConstraints(drop);

  PDW_LOG(Debug, "ilp") << "presolve tightened " << result.bounds_tightened
                        << " bounds, " << result.coefficients_tightened
                        << " coefficients, fixed " << result.probed_fixings
                        << " probed binaries (+" << result.probed_bounds
                        << " probed bounds) and removed "
                        << result.rows_removed << " redundant rows in "
                        << result.rounds << " rounds";
  return result;
}

}  // namespace pdw::ilp
