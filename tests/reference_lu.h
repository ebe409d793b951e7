// Test-only oracle for BasisLu (ilp/basis_lu.h).
//
// ReferenceLu is the sparse factorization BasisLu used before its pivot
// search took singletons from a queue: at every elimination step it scans
// every entry of every active row for the admissible entry minimizing
// (Markowitz cost, -|value|, row, position). The elimination arithmetic and
// the entry order of L and U are the production ones, so a correct BasisLu
// reproduces its factors, and hence its FTRAN/BTRAN results, bit for bit
// (DESIGN.md §12.3). There are no product-form updates.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ilp/basis_lu.h"

namespace pdw::ilp::reference {

class ReferenceLu {
 public:
  /// As BasisLu::factor: false when elimination runs out of admissible
  /// pivots (singular).
  bool factor(int m, const std::vector<BasisLu::SparseColumn>& cols);

  /// B x = b and Bᵀ y = c, as BasisLu::ftran / btran. Valid after a
  /// successful factor() only.
  void ftran(std::vector<double>& x) const;
  void btran(std::vector<double>& x) const;

  /// L + U + diagonal nonzeros, as BasisLu::factorNonzeros().
  std::int64_t factorNonzeros() const;

 private:
  bool factorSparse(const std::vector<BasisLu::SparseColumn>& cols);

  int m_ = 0;
  std::vector<int> prow_, pcol_;
  std::vector<double> diag_;
  std::vector<int> l_start_;
  std::vector<std::pair<int, double>> l_entries_;
  std::vector<int> u_start_;
  std::vector<std::pair<int, double>> u_entries_;
  mutable std::vector<double> work_, work2_;
};

}  // namespace pdw::ilp::reference
