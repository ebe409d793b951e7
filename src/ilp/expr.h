// Linear expressions over model variables.
//
// LinExpr is a small-coefficient-map value type used to build constraints
// and objectives:
//
//   LinExpr e = 2.0 * x + y - 3.0;
//   model.addConstr(e, Sense::LessEqual, 10.0);
#pragma once

#include <utility>
#include <vector>

#include "ilp/types.h"

namespace pdw::ilp {

/// A linear expression: sum of (coefficient * variable) terms plus a
/// constant. Terms are kept sorted by VarId with duplicates merged, so
/// expressions compare and hash deterministically. Building one term at a
/// time in ascending VarId order appends; any other order merges in linear
/// time, never re-sorting the whole expression.
class LinExpr {
 public:
  LinExpr() = default;
  /*implicit*/ LinExpr(double constant) : constant_(constant) {}
  /*implicit*/ LinExpr(VarId var) { terms_.emplace_back(var, 1.0); }

  static LinExpr term(VarId var, double coeff);

  LinExpr& operator+=(const LinExpr& other);
  LinExpr& operator-=(const LinExpr& other);
  LinExpr& operator*=(double factor);

  friend LinExpr operator+(LinExpr lhs, const LinExpr& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend LinExpr operator-(LinExpr lhs, const LinExpr& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend LinExpr operator*(LinExpr e, double factor) {
    e *= factor;
    return e;
  }
  friend LinExpr operator*(double factor, LinExpr e) {
    e *= factor;
    return e;
  }
  friend LinExpr operator-(LinExpr e) {
    e *= -1.0;
    return e;
  }

  /// Add `coeff * var` to the expression.
  void add(VarId var, double coeff);

  /// Coefficient of `var` (0 when absent). Binary search over the sorted
  /// terms.
  double coefficient(VarId var) const;

  /// Set the coefficient of `var` to exactly `coeff` (removing the term when
  /// coeff == 0). Used by presolve coefficient strengthening.
  void setCoefficient(VarId var, double coeff);

  double constant() const { return constant_; }
  void setConstant(double c) { constant_ = c; }

  /// Sorted, merged (var, coeff) terms; zero coefficients removed.
  const std::vector<std::pair<VarId, double>>& terms() const { return terms_; }

  /// Evaluate against a full assignment vector.
  double evaluate(const std::vector<double>& values) const;

  bool empty() const { return terms_.empty(); }

 private:
  /// Adds `other` (negated when `negate`), both sides sorted and merged.
  void mergeTerms(const std::vector<std::pair<VarId, double>>& other,
                  bool negate);

  std::vector<std::pair<VarId, double>> terms_;
  double constant_ = 0.0;
};

}  // namespace pdw::ilp
