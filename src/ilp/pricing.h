// The LP engine's structural constraint matrix, stored column-wise and
// row-wise, and the pricing of the dual simplex pivot row over it.
//
// A dual simplex pivot on row r needs the pivot row rho^T [A | I], where
// rho = e_r^T B^{-1} comes out of one BTRAN. On PDW's node LPs rho is
// sparse (about 40 nonzeros in 347 rows on the benchmark's cold-large
// workload), so PivotRowPricer scatters rho_i * A_i over the rows with
// rho_i != 0 through the row-wise copy instead of dotting every column
// with rho. Each column's entry still adds its products over ascending
// rows, exactly as a column-wise dot product does, so the row is bit for
// bit the column-wise one (DESIGN.md §12.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ilp/lp_backend.h"
#include "ilp/model.h"

namespace pdw::ilp {

/// Compressed-sparse-column constraint matrix over the model variables
/// (slack columns are implicit unit columns). Rows ascend within each
/// column. Duplicate (row, var) terms of a model row are merged; a cut
/// row keeps its own duplicates, in term order.
struct Csc {
  std::vector<int> col_start;  ///< size n + 1
  std::vector<int> row_index;
  std::vector<double> value;
};

/// The same entries row by row. Within a row, the entries of one column
/// keep their column-wise order.
struct Csr {
  std::vector<int> row_start;  ///< size m + 1
  std::vector<int> col_index;
  std::vector<double> value;
};

/// The constraint matrix of `model`, merged as described at Csc.
Csc buildCsc(const Model& model);
/// The row-wise copy of `csc`, which has `rows` rows.
Csr buildCsr(const Csc& csc, int rows);
/// Appends `rows` to both copies, after their existing rows. Terms whose
/// variable lies outside [0, n) or whose coefficient is 0 are dropped.
void appendCutRows(const std::vector<LpBackend::CutRow>& rows, Csc* csc,
                   Csr* csr);

/// Prices dual simplex pivot rows of one matrix, whose rows may grow
/// between calls. It owns the priced row and remembers which entries it
/// wrote, so each price() clears only those.
class PivotRowPricer {
 public:
  /// row() = rho^T [A | I] over the n structural columns of `csr`: for
  /// every structural column j, basic or not, the sum of A_ij * rho_i over
  /// ascending i, and rho_i for the slack column of every row i.
  void price(const Csr& csr, int n, const std::vector<double>& rho);

  const std::vector<double>& row() const { return row_; }
  /// Ascending columns outside which every nonbasic entry of row() is
  /// +-0: the structural columns some rho_i != 0 reaches, then the slack
  /// column of each row with rho_i != 0. May include basic columns.
  std::span<const int> candidates() const {
    return {candidates_.data(), count_};
  }

 private:
  std::vector<double> row_;
  /// One mark per structural column (padded to a multiple of 8), set by
  /// the scatter and read out, and cleared, eight at a time in ascending
  /// order. A plain byte store per entry, unlike a bit set in a shared
  /// word, carries no dependency from one entry to the next.
  std::vector<unsigned char> touched_;
  std::vector<int> nonzero_rows_;
  /// Sized for every column; the first count_ are the candidates.
  std::vector<int> candidates_;
  std::size_t count_ = 0;
  /// Structural columns at the front of candidates_: the row() entries
  /// the next price() zeroes first.
  std::size_t structural_ = 0;
};

}  // namespace pdw::ilp
