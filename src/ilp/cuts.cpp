#include "ilp/cuts.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "obs/flight.h"
#include "util/logging.h"

namespace pdw::ilp {

namespace {

constexpr double kFracMin = 0.005;    ///< min fractional part for a GMI row
constexpr double kCoeffDrop = 1e-12;  ///< relative zero threshold for cuts
constexpr double kMaxDynamism = 1e7;  ///< max |coeff| ratio within one cut
constexpr double kMinViolation = 1e-5;

// The root loop's fixed policy (DESIGN.md §13).
constexpr int kMaxRounds = 8;      ///< separation rounds at the root
constexpr int kMaxPerRound = 32;   ///< cut cap per round (most violated first)
/// Gomory cuts with more than max(16, kMaxSupportFrac * numVars()) nonzero
/// model terms are discarded: dense cut rows destroy the basis-LU sparsity
/// and cost more per simplex iteration across the whole search than their
/// root-bound improvement buys back.
constexpr double kMaxSupportFrac = 0.4;
/// Tailing-off guard: a round that improves the root LP bound by less than
/// kTailoffTol * (1 + |bound|) counts as flat.
constexpr double kTailoffTol = 1e-4;
/// A cut slack at the round's LP optimum for this many consecutive rounds
/// is evicted before the cuts are materialized for the search.
constexpr int kEvictAfterRounds = 2;

double fractionalPart(double v) { return v - std::floor(v); }

/// Finalize a >=-form cut `coeff . x >= rhs` over dense model-variable
/// coefficients into a normalized <=-form Cut. Returns false on an empty,
/// badly scaled, or near-zero cut.
bool finalizeCut(const std::vector<double>& coeff, double rhs,
                 CutFamily family, Cut* out) {
  double max_mag = 0.0;
  for (double c : coeff) max_mag = std::max(max_mag, std::abs(c));
  if (max_mag < 1e-10) return false;
  double min_mag = max_mag;
  out->terms.clear();
  for (VarId v = 0; v < static_cast<VarId>(coeff.size()); ++v) {
    const double c = coeff[static_cast<std::size_t>(v)];
    if (std::abs(c) <= kCoeffDrop * max_mag) continue;
    min_mag = std::min(min_mag, std::abs(c));
    // >= form negates into the canonical <= form here.
    out->terms.emplace_back(v, -c);
  }
  if (out->terms.empty()) return false;
  if (max_mag / min_mag > kMaxDynamism) return false;
  out->rhs = -rhs;
  out->family = family;
  return true;
}

}  // namespace

bool CutPool::add(const Cut& cut) {
  double max_mag = 0.0;
  for (const auto& [var, c] : cut.terms) max_mag = std::max(max_mag, std::abs(c));
  if (max_mag <= 0.0) return false;
  const double scale = 1e9 / max_mag;
  std::vector<std::int64_t> key;
  key.reserve(cut.terms.size() * 2 + 2);
  for (const auto& [var, c] : cut.terms) {
    key.push_back(static_cast<std::int64_t>(var));
    key.push_back(static_cast<std::int64_t>(std::llround(c * scale)));
  }
  key.push_back(-1);
  key.push_back(static_cast<std::int64_t>(std::llround(cut.rhs * scale)));
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it != keys_.end() && *it == key) return false;
  keys_.insert(it, std::move(key));
  return true;
}

std::optional<Cut> gmiCut(const LpBackend::TableauRowView& view,
                          const Model& model) {
  const int n = model.numVars();
  const int total = static_cast<int>(view.coeff.size());
  const int m = total - n;
  if (m < 0 || m != model.numConstraints()) return std::nullopt;

  // Substitute every nonbasic column to its at-bound displacement
  // t_j >= 0 (t = x - l at lower, t = u - x at upper), giving
  //   x_basic + sum_j a'_j t_j = b'.
  struct Term {
    int col;
    double coeff;   ///< a'_j, the substituted coefficient
    bool at_upper;  ///< which bound the column rests at
    bool integral;  ///< t_j is provably integer-valued
  };
  std::vector<Term> terms;
  double b = view.rhs;
  for (int j = 0; j < total; ++j) {
    if (view.status[static_cast<std::size_t>(j)] == LpBackend::ColStatus::Basic)
      continue;
    const double a = view.coeff[static_cast<std::size_t>(j)];
    if (a == 0.0) continue;
    const LpBackend::ColStatus st = view.status[static_cast<std::size_t>(j)];
    if (st == LpBackend::ColStatus::Free) {
      // A free nonbasic has no sign-constrained displacement; no GMI cut
      // can be derived from this row.
      if (std::abs(a) > 1e-11) return std::nullopt;
      continue;
    }
    const bool at_upper = st == LpBackend::ColStatus::AtUpper;
    const double bound = at_upper ? view.upper[static_cast<std::size_t>(j)]
                                  : view.lower[static_cast<std::size_t>(j)];
    if (!std::isfinite(bound)) return std::nullopt;
    const bool integral =
        j < n && model.var(j).type != VarType::Continuous &&
        std::abs(bound - std::round(bound)) <= 1e-9;
    b -= a * bound;
    terms.push_back(Term{j, at_upper ? -a : a, at_upper, integral});
  }

  const double f0 = fractionalPart(b);
  if (f0 < kFracMin || f0 > 1.0 - kFracMin) return std::nullopt;

  // GMI coefficients in t-space: sum_j gamma_j t_j >= f0.
  std::vector<double> model_coeff(static_cast<std::size_t>(n), 0.0);
  double rhs = f0;
  for (const Term& t : terms) {
    double gamma;
    if (t.integral) {
      const double fj = fractionalPart(t.coeff);
      gamma = fj <= f0 + 1e-12 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
    } else {
      gamma = t.coeff >= 0.0 ? t.coeff : f0 * (-t.coeff) / (1.0 - f0);
    }
    if (gamma <= 1e-13) continue;

    // Substitute t_j back out into model-variable space (>= form).
    if (t.col < n) {
      if (t.at_upper) {
        model_coeff[static_cast<std::size_t>(t.col)] -= gamma;
        rhs -= gamma * view.upper[static_cast<std::size_t>(t.col)];
      } else {
        model_coeff[static_cast<std::size_t>(t.col)] += gamma;
        rhs += gamma * view.lower[static_cast<std::size_t>(t.col)];
      }
    } else {
      // Slack of row r: s_r = rhs_r - a_r . x.
      const Constraint& con = model.constraint(t.col - n);
      const double sign = t.at_upper ? 1.0 : -1.0;
      for (const auto& [var, c] : con.expr.terms())
        model_coeff[static_cast<std::size_t>(var)] += sign * gamma * c;
      rhs += sign * gamma * con.rhs;
    }
  }

  Cut cut;
  if (!finalizeCut(model_coeff, rhs, CutFamily::Gomory, &cut))
    return std::nullopt;
  cut.violation = f0;
  return cut;
}

void coverCuts(const Model& model, const std::vector<double>& x,
               std::vector<Cut>* out) {
  constexpr int kMaxRowTerms = 100;
  for (ConstraintId ci = 0; ci < model.numConstraints(); ++ci) {
    const Constraint& con = model.constraint(ci);
    if (con.sense == Sense::Equal) continue;
    const auto& row = con.expr.terms();
    if (row.size() < 2 || row.size() > kMaxRowTerms) continue;
    if (!std::isfinite(con.rhs)) continue;

    // Normalize to <= and require a pure 0-1 row.
    const double flip = con.sense == Sense::GreaterEqual ? -1.0 : 1.0;
    bool binary_row = true;
    for (const auto& [var, c] : row) {
      (void)c;
      const Variable& v = model.var(var);
      if (v.type == VarType::Continuous || v.lower < -1e-9 ||
          v.upper > 1.0 + 1e-9) {
        binary_row = false;
        break;
      }
    }
    if (!binary_row) continue;

    // Complement negative coefficients (z = 1 - x) so every item weight is
    // positive: sum_j w_j z_j <= budget.
    struct Item {
      VarId var;
      double weight;
      double z;  ///< LP value of the (possibly complemented) item
      bool complemented;
    };
    std::vector<Item> items;
    double budget = flip * con.rhs;
    for (const auto& [var, c] : row) {
      const double a = flip * c;
      if (a > 1e-12) {
        items.push_back(Item{var, a, x[static_cast<std::size_t>(var)], false});
      } else if (a < -1e-12) {
        budget -= a;
        items.push_back(
            Item{var, -a, 1.0 - x[static_cast<std::size_t>(var)], true});
      }
    }
    if (items.size() < 2 || budget < -1e-9) continue;
    double total_weight = 0.0;
    for (const Item& it : items) total_weight += it.weight;
    if (total_weight <= budget + 1e-9) continue;  // no cover exists

    // Greedy cover: take items by LP value (descending) until the weight
    // budget is exceeded, then minimalize from the lightest-valued end.
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.z != b.z) return a.z > b.z;
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.var < b.var;
    });
    std::vector<Item> cover;
    double cover_weight = 0.0;
    for (const Item& it : items) {
      if (cover_weight > budget + 1e-9) break;
      cover.push_back(it);
      cover_weight += it.weight;
    }
    if (cover_weight <= budget + 1e-9) continue;
    for (std::size_t k = cover.size(); k-- > 0;) {
      if (cover_weight - cover[k].weight > budget + 1e-9) {
        cover_weight -= cover[k].weight;
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }

    // Cover inequality sum_{j in C} z_j <= |C| - 1, violated at the LP
    // point; substitute complements back out.
    double z_sum = 0.0;
    for (const Item& it : cover) z_sum += it.z;
    const double violation =
        z_sum - (static_cast<double>(cover.size()) - 1.0);
    if (violation < 1e-3) continue;

    Cut cut;
    cut.family = CutFamily::Cover;
    cut.violation = violation;
    cut.rhs = static_cast<double>(cover.size()) - 1.0;
    for (const Item& it : cover) {
      if (it.complemented) {
        cut.terms.emplace_back(it.var, -1.0);
        cut.rhs -= 1.0;
      } else {
        cut.terms.emplace_back(it.var, 1.0);
      }
    }
    std::sort(cut.terms.begin(), cut.terms.end());
    out->push_back(std::move(cut));
  }
}

CutStats separateRootCuts(Model& model, const SolveParams& params,
                          const std::vector<double>& check_point,
                          obs::FlightRecorder* flight) {
  CutStats stats;
  if (model.numIntegerVars() == 0 || model.numConstraints() == 0) return stats;

  const int n = model.numVars();
  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    lower[static_cast<std::size_t>(v)] = model.var(v).lower;
    upper[static_cast<std::size_t>(v)] = model.var(v).upper;
  }

  const std::unique_ptr<LpBackend> engine = makeLpBackend(model, params);
  LpResult lp = engine->coldSolve(lower, upper);
  const auto countLpWork = [&stats](const LpResult& r) {
    stats.simplex_iterations += r.iterations;
    stats.refactorizations += r.factorizations;
  };
  countLpWork(lp);
  if (lp.status != LpStatus::Optimal) return stats;

  CutPool pool;
  struct Materialized {
    ConstraintId row;
    CutFamily family;
    int inactive = 0;
  };
  std::vector<Materialized> mat;

  const auto evalCut = [](const Cut& cut, const std::vector<double>& point) {
    double lhs = 0.0;
    for (const auto& [var, c] : cut.terms)
      lhs += c * point[static_cast<std::size_t>(var)];
    return lhs;
  };

  int quiet_rounds = 0;  // consecutive rounds with no root-bound progress
  for (int round = 0; round < kMaxRounds; ++round) {
    stats.rounds = round + 1;

    // Gomory cuts from the fractional integer variables, most-fractional
    // first.
    std::vector<Cut> candidates;
    std::vector<std::pair<double, VarId>> frac;
    for (VarId v = 0; v < n; ++v) {
      if (model.var(v).type == VarType::Continuous) continue;
      const double value = lp.values[static_cast<std::size_t>(v)];
      const double dist = std::abs(value - std::round(value));
      if (dist > kIntegralityTol) frac.emplace_back(-dist, v);
    }
    std::sort(frac.begin(), frac.end());
    const int attempts =
        std::min<int>(static_cast<int>(frac.size()), 4 * kMaxPerRound);
    const int max_support =
        std::max(16, static_cast<int>(kMaxSupportFrac * n));
    LpBackend::TableauRowView view;
    for (int k = 0; k < attempts; ++k) {
      const VarId v = frac[static_cast<std::size_t>(k)].second;
      if (!engine->tableauRow(v, &view)) continue;
      auto cut = gmiCut(view, model);
      if (!cut) continue;
      // Density cap: dense rows make every later FTRAN/BTRAN and LU
      // refactorization pay for this cut, across both lanes.
      if (static_cast<int>(cut->terms.size()) > max_support) continue;
      // Re-measure the violation in model space: the substitution chain
      // is numerically exact only up to rounding.
      cut->violation = evalCut(*cut, lp.values) - cut->rhs;
      if (cut->violation < kMinViolation) continue;
      candidates.push_back(std::move(*cut));
    }
    coverCuts(model, lp.values, &candidates);

    // Validity guard: a correct cut can never cut off a known
    // integer-feasible point; discard (and flag) any candidate that does.
    if (!check_point.empty()) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double lhs = evalCut(candidates[i], check_point);
        if (lhs > candidates[i].rhs + 1e-6) {
          PDW_LOG(Warn, "ilp")
              << "discarding invalid candidate cut (family "
              << (candidates[i].family == CutFamily::Gomory ? "gomory"
                                                            : "cover")
              << ", violates check point by " << lhs - candidates[i].rhs
              << ")";
          continue;
        }
        if (kept != i) candidates[kept] = std::move(candidates[i]);
        ++kept;
      }
      candidates.resize(kept);
    }

    // Deterministic selection: most violated first, shorter support wins
    // ties, then lexicographic support.
    std::sort(candidates.begin(), candidates.end(),
              [](const Cut& a, const Cut& b) {
                if (a.violation != b.violation) return a.violation > b.violation;
                if (a.terms.size() != b.terms.size())
                  return a.terms.size() < b.terms.size();
                return a.terms < b.terms;
              });

    int added_this_round = 0;
    std::vector<LpBackend::CutRow> engine_rows;
    for (Cut& cut : candidates) {
      if (added_this_round >= kMaxPerRound) break;
      if (!pool.add(cut)) continue;
      LinExpr expr;
      for (const auto& [var, c] : cut.terms) expr.add(var, c);
      const ConstraintId row = model.addLessEqual(
          expr, cut.rhs,
          cut.family == CutFamily::Gomory ? "cut_gmi" : "cut_cover");
      mat.push_back(Materialized{row, cut.family, 0});
      LpBackend::CutRow er;
      er.terms = cut.terms;
      er.sense = Sense::LessEqual;
      er.rhs = cut.rhs;
      engine_rows.push_back(std::move(er));
      ++added_this_round;
      ++stats.added;
      if (cut.family == CutFamily::Gomory)
        ++stats.gomory;
      else
        ++stats.cover;
      if (flight)
        flight->record(obs::FlightEventKind::CutAdded, 0, cut.violation,
                       cut.family == CutFamily::Gomory ? 0.0 : 1.0);
    }
    if (added_this_round == 0) break;

    // Re-optimize over the extended row set incrementally: the cut slacks
    // enter basic and the LP is a warm dual re-solve.
    const double prev_obj = lp.objective;
    engine->addCutRows(engine_rows);
    lp = engine->solve(lower, upper, /*allow_warm=*/true);
    countLpWork(lp);
    if (lp.status != LpStatus::Optimal) break;
    // Tailing off: two consecutive rounds that barely move the root bound
    // mean further rounds only bloat the row set the search inherits (a
    // single flat round often precedes more progress and is forgiven).
    if (std::abs(lp.objective - prev_obj) <=
        kTailoffTol * (1.0 + std::abs(prev_obj)))
      ++quiet_rounds;
    else
      quiet_rounds = 0;
    const bool tailed_off = quiet_rounds >= 2;

    // Activity aging: a cut slack at this round's optimum has not bound
    // the relaxation; evict it after kEvictAfterRounds such rounds.
    for (Materialized& mc : mat) {
      const Constraint& con = model.constraint(mc.row);
      const double slack = con.rhs - con.expr.evaluate(lp.values);
      if (slack > 1e-7 * (1.0 + std::abs(con.rhs)))
        ++mc.inactive;
      else
        mc.inactive = 0;
    }
    if (tailed_off) break;
  }

  std::vector<char> drop(static_cast<std::size_t>(model.numConstraints()), 0);
  for (const Materialized& mc : mat) {
    if (mc.inactive >= kEvictAfterRounds) {
      drop[static_cast<std::size_t>(mc.row)] = 1;
      ++stats.evicted;
    } else if (mc.family == CutFamily::Gomory) {
      ++stats.gomory_active;
    } else {
      ++stats.cover_active;
    }
  }
  if (stats.evicted > 0) model.removeConstraints(drop);

  PDW_LOG(Debug, "ilp") << "root cuts: " << stats.added << " added ("
                        << stats.gomory << " gomory, " << stats.cover
                        << " cover), " << stats.evicted << " evicted in "
                        << stats.rounds << " rounds";
  return stats;
}

}  // namespace pdw::ilp
