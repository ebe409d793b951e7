#include "ilp/expr.h"

#include <algorithm>
#include <cmath>

namespace pdw::ilp {

namespace {
constexpr double kZeroCoeffTol = 0.0;  // exact-zero removal only
}

LinExpr LinExpr::term(VarId var, double coeff) {
  LinExpr e;
  e.add(var, coeff);
  return e;
}

void LinExpr::add(VarId var, double coeff) {
  if (coeff == kZeroCoeffTol) return;
  if (terms_.empty() || var > terms_.back().first) {
    terms_.emplace_back(var, coeff);
    return;
  }
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), var,
      [](const auto& term, VarId v) { return term.first < v; });
  if (it->first != var) {
    terms_.insert(it, {var, coeff});
    return;
  }
  it->second += coeff;
  if (it->second == 0.0) terms_.erase(it);
}

double LinExpr::coefficient(VarId var) const {
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), var,
      [](const auto& term, VarId v) { return term.first < v; });
  return it != terms_.end() && it->first == var ? it->second : 0.0;
}

void LinExpr::setCoefficient(VarId var, double coeff) {
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), var,
      [](const auto& term, VarId v) { return term.first < v; });
  if (it != terms_.end() && it->first == var) {
    if (coeff == 0.0)
      terms_.erase(it);
    else
      it->second = coeff;
  } else if (coeff != 0.0) {
    terms_.insert(it, {var, coeff});
  }
}

LinExpr& LinExpr::operator+=(const LinExpr& other) {
  constant_ += other.constant_;
  mergeTerms(other.terms_, /*negate=*/false);
  return *this;
}

LinExpr& LinExpr::operator-=(const LinExpr& other) {
  constant_ -= other.constant_;
  mergeTerms(other.terms_, /*negate=*/true);
  return *this;
}

LinExpr& LinExpr::operator*=(double factor) {
  constant_ *= factor;
  if (factor == 0.0) {
    terms_.clear();
    return *this;
  }
  for (auto& [var, coeff] : terms_) coeff *= factor;
  // A product that underflows to 0 leaves the expression.
  std::erase_if(terms_, [](const auto& term) { return term.second == 0.0; });
  return *this;
}

double LinExpr::evaluate(const std::vector<double>& values) const {
  double total = constant_;
  for (const auto& [var, coeff] : terms_)
    total += coeff * values[static_cast<std::size_t>(var)];
  return total;
}

void LinExpr::mergeTerms(const std::vector<std::pair<VarId, double>>& other,
                         bool negate) {
  if (&other == &terms_) {  // e += e: append from a copy
    const std::vector<std::pair<VarId, double>> copy = other;
    mergeTerms(copy, negate);
    return;
  }
  const std::size_t mid = terms_.size();
  terms_.insert(terms_.end(), other.begin(), other.end());
  if (negate)
    for (std::size_t k = mid; k < terms_.size(); ++k)
      terms_[k].second = -terms_[k].second;
  // Both halves are sorted with each variable at most once and no zero.
  if (mid == 0 || other.empty() || terms_[mid - 1].first < terms_[mid].first)
    return;
  std::inplace_merge(
      terms_.begin(), terms_.begin() + static_cast<std::ptrdiff_t>(mid),
      terms_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // Sum each run of one variable, as the sort-and-merge this replaced did,
  // and drop zero sums.
  std::size_t out = 0;
  for (std::size_t i = 0; i < terms_.size();) {
    VarId var = terms_[i].first;
    double coeff = 0.0;
    while (i < terms_.size() && terms_[i].first == var) {
      coeff += terms_[i].second;
      ++i;
    }
    if (coeff != 0.0) terms_[out++] = {var, coeff};
  }
  terms_.resize(out);
}

}  // namespace pdw::ilp
