// Sparse LU factorization of a simplex basis, with product-form updates.
//
// The revised simplex (revised_simplex.h) keeps B = LU factorized instead of
// carrying an explicit tableau. Design:
//
//  * Markowitz pivoting: at each elimination step the pivot minimizes
//    (row_count-1)*(col_count-1) among entries passing a relative-magnitude
//    threshold, trading a little numerical greed for fill-in control — the
//    classic sparse-LU compromise. Ties break toward larger magnitude, then
//    smaller indices, so factorization is deterministic.
//  * Singleton queue: a row- or column-singleton entry costs 0 and every
//    other entry at least 1, so while admissible singletons remain the
//    pivot is the best of them, taken from a queue ordered by (-|value|,
//    row, position) that elimination keeps up to date. Only steps with no
//    singleton left (the "nucleus") scan every active entry. The queue
//    returns exactly the pivot a full scan would, so the factors are bit
//    for bit those of the full-scan search (DESIGN.md §12.2).
//  * One factor form: every basis, however dense or fill-heavy, goes
//    through this sparse elimination. The engine's bases come from 0-1 and
//    big-M rows over boxed columns and stay sparse (DESIGN.md §12.2); a
//    dense basis factors correctly here, only more slowly.
//  * Product-form updates: replacing basis position r with a column whose
//    FTRAN image is alpha appends an eta transform (B' = B·E with E = I
//    except column r = alpha); FTRAN applies the LU solve then the etas in
//    order, BTRAN applies eta transposes in reverse then the LU transpose
//    solve. The engine refactorizes on a fixed update cadence, when
//    update() refuses a tiny pivot, and when FTRAN disagrees with a priced
//    pivot row; refactorizing also re-anchors numerical drift.
//
// Row/position vocabulary: a basis column lives at a *position* (0..m-1 in
// the basis heading); FTRAN maps row-indexed right-hand sides to
// position-indexed solutions of B x = b, BTRAN maps position-indexed costs
// to row-indexed duals of Bᵀ y = c.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace pdw::ilp {

class BasisLu {
 public:
  /// Entries of one sparse basis column: (constraint row, coefficient).
  using SparseColumn = std::vector<std::pair<int, double>>;

  /// Factorize the m x m basis given by `cols` (one column per basis
  /// position). Returns false when the basis is numerically singular; the
  /// previous factorization (if any) is invalidated either way.
  bool factor(int m, const std::vector<SparseColumn>& cols);

  /// Solve B x = b in place: `x` holds the row-indexed right-hand side on
  /// entry and the position-indexed solution on return.
  void ftran(std::vector<double>& x) const;

  /// Solve Bᵀ y = c in place: `x` holds the position-indexed costs on entry
  /// and the row-indexed duals on return.
  void btran(std::vector<double>& x) const;

  /// Product-form update after replacing basis position `pos` with a column
  /// whose FTRAN image is `alpha` (position-indexed, i.e. ftran() output of
  /// the entering column). Returns false — leaving the factorization
  /// untouched — when |alpha[pos]| is too small to pivot on; the caller
  /// must refactorize.
  bool update(int pos, const std::vector<double>& alpha);

  bool valid() const { return valid_; }
  int size() const { return m_; }
  int updates() const { return static_cast<int>(eta_start_.size()) - 1; }
  /// Nonzeros of the LU factors proper (fill-in diagnostics).
  std::int64_t factorNonzeros() const { return factor_nnz_; }

 private:
  static constexpr double kAbsPivotTol = 1e-11;
  static constexpr double kRelPivotTol = 0.05;  ///< Markowitz threshold
  static constexpr double kDropTol = 1e-13;
  static constexpr double kUpdatePivotTol = 1e-9;

  bool factorSparse(const std::vector<SparseColumn>& cols);
  /// Smallest admissible pivot magnitude in an active row: the relative
  /// threshold against its largest entry, at least kAbsPivotTol; +inf when
  /// the row is empty or all tiny.
  static double pivotFloor(const std::vector<std::pair<int, double>>& row);
  /// Full Markowitz scan over every active entry: the search for steps
  /// where the singleton queue is empty. Returns false when no entry is
  /// admissible (singular).
  bool nucleusPivot(int* piv_row, int* piv_pos, double* piv_val) const;
  /// Queue the admissible singleton entries of active row `row`.
  void pushRowSingletons(int row);
  /// Queue the last entry of column `pos` (count 1), when admissible.
  void pushColumnSingleton(int pos);
  void clearFactors();
  void applyEtasFtran(std::vector<double>& x) const;
  void applyEtasBtran(std::vector<double>& x) const;

  int m_ = 0;
  bool valid_ = false;

  // ---- sparse factors ----------------------------------------------------
  // Step k eliminated row prow_[k] / position pcol_[k]. l_*: multipliers
  // (original row, value) that eliminated column pcol_[k] from later-pivotal
  // rows. u_*: the pivot row's surviving entries (position, value) over
  // later-eliminated positions; diag_[k] is its pivot value.
  std::vector<int> prow_, pcol_;
  std::vector<double> diag_;
  std::vector<int> l_start_;
  std::vector<std::pair<int, double>> l_entries_;
  std::vector<int> u_start_;
  std::vector<std::pair<int, double>> u_entries_;

  // ---- product-form etas -------------------------------------------------
  // Eta e: pivot position eta_pos_[e] with pivot value eta_pivot_[e] and
  // off-pivot entries eta_entries_[eta_start_[e] .. eta_start_[e+1]).
  std::vector<int> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_{0};
  std::vector<std::pair<int, double>> eta_entries_;
  std::int64_t factor_nnz_ = 0;

  // ---- factorSparse working storage, reused across calls -----------------
  /// A queued singleton pivot candidate. It is stale once its row has been
  /// eliminated into (version mismatch) or pivoted (inactive); stale
  /// entries are dropped when popped.
  struct Singleton {
    double mag;
    int row;
    int pos;
    double val;
    int version;
    /// Heap order: the top has the largest magnitude, then the smallest
    /// row, then the smallest position (the full scan's cost-0 tie-breaks).
    bool operator<(const Singleton& other) const {
      if (mag != other.mag) return mag < other.mag;
      if (row != other.row) return row > other.row;
      return pos > other.pos;
    }
  };
  std::vector<std::vector<std::pair<int, double>>> rows_;  // active rows
  std::vector<std::vector<int>> col_rows_;  // candidate rows per position
  std::vector<std::pair<int, double>> next_row_;  // elimination buffer
  std::vector<int> col_count_;
  std::vector<char> row_active_;
  std::vector<int> row_version_;
  std::vector<int> col_touched_;  // last step that lowered a column count
  std::vector<int> changed_rows_, touched_cols_;  // this step's lists
  std::vector<double> acc_;
  std::vector<int> acc_stamp_;
  std::vector<Singleton> queue_;  // binary heap, best candidate on top

  // scratch (mutable so const solves avoid per-call allocation)
  mutable std::vector<double> work_;
  mutable std::vector<double> work2_;
};

}  // namespace pdw::ilp
