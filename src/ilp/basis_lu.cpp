#include "ilp/basis_lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace pdw::ilp {

void BasisLu::clearFactors() {
  prow_.clear();
  pcol_.clear();
  diag_.clear();
  l_start_.clear();
  l_entries_.clear();
  u_start_.clear();
  u_entries_.clear();
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_entries_.clear();
  factor_nnz_ = 0;
  valid_ = false;
}

bool BasisLu::factor(int m, const std::vector<SparseColumn>& cols) {
  assert(static_cast<int>(cols.size()) == m);
  clearFactors();
  m_ = m;
  valid_ = m == 0 || factorSparse(cols);
  return valid_;
}

bool BasisLu::factorSparse(const std::vector<SparseColumn>& cols) {
  const int m = m_;
  // Row-major working copy: rows_[i] = (position, value) entries.
  if (static_cast<int>(rows_.size()) < m) rows_.resize(m);
  for (int i = 0; i < m; ++i) rows_[i].clear();
  col_count_.assign(m, 0);
  for (int pos = 0; pos < m; ++pos) {
    for (const auto& [row, val] : cols[pos]) {
      assert(row >= 0 && row < m);
      if (val == 0.0) continue;
      rows_[row].emplace_back(pos, val);
      ++col_count_[pos];
    }
  }
  // col_rows_: candidate rows per position, appended lazily (may hold stale
  // rows whose entry got cancelled; verified against row contents on use).
  if (static_cast<int>(col_rows_.size()) < m) col_rows_.resize(m);
  for (int i = 0; i < m; ++i) col_rows_[i].clear();
  for (int i = 0; i < m; ++i)
    for (const auto& [pos, val] : rows_[i]) col_rows_[pos].push_back(i);

  row_active_.assign(m, 1);
  row_version_.assign(m, 0);
  col_touched_.assign(m, -1);
  prow_.reserve(m);
  pcol_.reserve(m);
  diag_.reserve(m);
  l_start_.reserve(m + 1);
  u_start_.reserve(m + 1);

  // Dense accumulator for row combination; acc_ is only read where
  // acc_stamp_ carries the current stamp.
  acc_.resize(m);
  acc_stamp_.assign(m, -1);
  int stamp = 0;

  queue_.clear();
  for (int i = 0; i < m; ++i) pushRowSingletons(i);

  for (int k = 0; k < m; ++k) {
    // ---- Markowitz pivot: best queued singleton, else a nucleus scan ----
    int piv_row = -1, piv_pos = -1;
    double piv_val = 0.0;
    while (!queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end());
      const Singleton top = queue_.back();
      queue_.pop_back();
      // Rows change only by elimination, which bumps their version, so an
      // entry whose row is active at the version it was queued with still
      // has its value and admissibility. It is still a singleton, too: its
      // row is unchanged, and a column count never rises from one, because
      // fill-in reaches a column only from a pivot row holding it.
      if (!row_active_[top.row] || row_version_[top.row] != top.version)
        continue;
      piv_row = top.row;
      piv_pos = top.pos;
      piv_val = top.val;
      break;
    }
    if (piv_row < 0 && !nucleusPivot(&piv_row, &piv_pos, &piv_val))
      return false;  // singular: no admissible pivot left

    prow_.push_back(piv_row);
    pcol_.push_back(piv_pos);
    diag_.push_back(piv_val);
    row_active_[piv_row] = 0;
    changed_rows_.clear();
    touched_cols_.clear();
    const auto touch = [&](int pos) {
      if (col_touched_[pos] == k) return;
      col_touched_[pos] = k;
      touched_cols_.push_back(pos);
    };

    // Freeze the pivot row as U row k (entries over still-active positions).
    std::vector<std::pair<int, double>>& prow_entries = rows_[piv_row];
    u_start_.push_back(static_cast<int>(u_entries_.size()));
    for (const auto& [pos, val] : prow_entries) {
      --col_count_[pos];
      if (pos == piv_pos) continue;
      u_entries_.emplace_back(pos, val);
      touch(pos);
    }

    // ---- eliminate the pivot position from the remaining active rows ----
    l_start_.push_back(static_cast<int>(l_entries_.size()));
    std::vector<int>& cand = col_rows_[piv_pos];
    for (int i : cand) {
      if (!row_active_[i]) continue;
      std::vector<std::pair<int, double>>& row = rows_[i];
      double v = 0.0;
      bool found = false;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos) {
          v = val;
          found = true;
          break;
        }
      }
      if (!found || v == 0.0) continue;  // stale candidate
      const double mult = v / piv_val;
      l_entries_.emplace_back(i, mult);

      // row_i -= mult * pivot_row, dropping the pivot position.
      ++stamp;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos) continue;
        acc_[pos] = val;
        acc_stamp_[pos] = stamp;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos) continue;
        if (acc_stamp_[pos] == stamp) {
          acc_[pos] -= mult * val;
        } else {
          acc_[pos] = -mult * val;
          acc_stamp_[pos] = stamp;
        }
      }
      for (const auto& [pos, val] : row) --col_count_[pos];
      std::vector<std::pair<int, double>>& next = next_row_;
      next.clear();
      next.reserve(row.size() + prow_entries.size());
      // Keep original-order positions first, then pivot-row fill-in, so the
      // rebuild is deterministic without a sort.
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos || acc_stamp_[pos] != stamp) continue;
        if (std::abs(acc_[pos]) > kDropTol)
          next.emplace_back(pos, acc_[pos]);
        else
          touch(pos);  // cancelled
        acc_stamp_[pos] = -1;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos || acc_stamp_[pos] != stamp) continue;
        if (std::abs(acc_[pos]) > kDropTol) {
          next.emplace_back(pos, acc_[pos]);
          col_rows_[pos].push_back(i);  // fill-in
        }
        acc_stamp_[pos] = -1;
      }
      row.swap(next);
      for (const auto& [pos, val] : row) ++col_count_[pos];
      ++row_version_[i];
      changed_rows_.push_back(i);
    }
    cand.clear();

    // ---- queue the singletons this step created -------------------------
    // A changed row may have become a row singleton and its entries may sit
    // in count-1 columns; an unchanged row gains a singleton only through a
    // column whose count fell to one.
    for (int i : changed_rows_) pushRowSingletons(i);
    for (int pos : touched_cols_)
      if (col_count_[pos] == 1) pushColumnSingleton(pos);
  }
  l_start_.push_back(static_cast<int>(l_entries_.size()));
  u_start_.push_back(static_cast<int>(u_entries_.size()));
  factor_nnz_ = static_cast<std::int64_t>(l_entries_.size()) +
                static_cast<std::int64_t>(u_entries_.size()) + m;
  work_.assign(m, 0.0);
  work2_.assign(m, 0.0);
  return true;
}

double BasisLu::pivotFloor(const std::vector<std::pair<int, double>>& row) {
  double row_max = 0.0;
  for (const auto& [pos, val] : row) row_max = std::max(row_max, std::abs(val));
  if (row_max < kAbsPivotTol) return std::numeric_limits<double>::infinity();
  return std::max(kAbsPivotTol, kRelPivotTol * row_max);
}

bool BasisLu::nucleusPivot(int* piv_row, int* piv_pos,
                           double* piv_val) const {
  long best_cost = -1;
  double best_mag = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (!row_active_[i]) continue;
    const auto& row = rows_[i];
    const double mag_floor = pivotFloor(row);
    const long rc = static_cast<long>(row.size()) - 1;
    for (const auto& [pos, val] : row) {
      const double mag = std::abs(val);
      if (mag < mag_floor) continue;
      const long cost = rc * (static_cast<long>(col_count_[pos]) - 1);
      const bool better =
          best_cost < 0 || cost < best_cost ||
          (cost == best_cost &&
           (mag > best_mag ||
            (mag == best_mag &&
             (i < *piv_row || (i == *piv_row && pos < *piv_pos)))));
      if (better) {
        best_cost = cost;
        best_mag = mag;
        *piv_row = i;
        *piv_pos = pos;
        *piv_val = val;
      }
    }
  }
  return best_cost >= 0;
}

void BasisLu::pushRowSingletons(int row) {
  const std::vector<std::pair<int, double>>& entries = rows_[row];
  const double mag_floor = pivotFloor(entries);
  const bool row_singleton = entries.size() == 1;
  for (const auto& [pos, val] : entries) {
    const double mag = std::abs(val);
    if (mag < mag_floor) continue;
    if (!row_singleton && col_count_[pos] != 1) continue;
    queue_.push_back(Singleton{mag, row, pos, val, row_version_[row]});
    std::push_heap(queue_.begin(), queue_.end());
  }
}

void BasisLu::pushColumnSingleton(int pos) {
  for (int i : col_rows_[pos]) {
    if (!row_active_[i]) continue;
    const std::vector<std::pair<int, double>>& entries = rows_[i];
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [pos](const std::pair<int, double>& e) {
                                   return e.first == pos;
                                 });
    if (it == entries.end()) continue;  // stale candidate
    const double mag = std::abs(it->second);
    if (mag < pivotFloor(entries)) return;
    queue_.push_back(Singleton{mag, i, pos, it->second, row_version_[i]});
    std::push_heap(queue_.begin(), queue_.end());
    return;
  }
}

void BasisLu::ftran(std::vector<double>& x) const {
  assert(valid_ && static_cast<int>(x.size()) == m_);
  const int m = m_;
  if (m == 0) return;
  // Forward eliminate in row space: after step k, x[prow_[k]] is final.
  for (int k = 0; k < m; ++k) {
    const double xk = x[prow_[k]];
    if (xk != 0.0) {
      for (int e = l_start_[k]; e < l_start_[k + 1]; ++e)
        x[l_entries_[e].first] -= l_entries_[e].second * xk;
    }
  }
  // Back substitution: solution indexed by position, via scratch.
  std::vector<double>& sol = work_;
  for (int k = m - 1; k >= 0; --k) {
    double v = x[prow_[k]];
    for (int e = u_start_[k]; e < u_start_[k + 1]; ++e)
      v -= u_entries_[e].second * sol[u_entries_[e].first];
    sol[pcol_[k]] = v / diag_[k];
  }
  x.swap(sol);
  applyEtasFtran(x);
}

void BasisLu::btran(std::vector<double>& x) const {
  assert(valid_ && static_cast<int>(x.size()) == m_);
  const int m = m_;
  if (m == 0) return;
  applyEtasBtran(x);
  // Solve U^T z = x: z_k = (x[pcol_k] - partial) / diag_k, where `partial`
  // accumulates earlier steps' U entries hitting position pcol_k.
  std::vector<double>& accum = work_;
  std::fill(accum.begin(), accum.end(), 0.0);
  std::vector<double>& z = work2_;
  for (int k = 0; k < m; ++k) {
    const double zk = (x[pcol_[k]] - accum[pcol_[k]]) / diag_[k];
    z[k] = zk;
    if (zk != 0.0) {
      for (int e = u_start_[k]; e < u_start_[k + 1]; ++e)
        accum[u_entries_[e].first] += u_entries_[e].second * zk;
    }
  }
  // Solve L^T w = z (backward over steps). L entry (row i, mult) at step k
  // couples step k with the step where row i is pivotal; iterating k
  // descending and keeping w indexed by original row makes w[row of later
  // step] final before it is consumed.
  std::vector<double>& w = work_;
  for (int k = 0; k < m; ++k) w[prow_[k]] = z[k];
  for (int k = m - 1; k >= 0; --k) {
    double v = w[prow_[k]];
    for (int e = l_start_[k]; e < l_start_[k + 1]; ++e)
      v -= l_entries_[e].second * w[l_entries_[e].first];
    w[prow_[k]] = v;
  }
  x.swap(w);
}

bool BasisLu::update(int pos, const std::vector<double>& alpha) {
  assert(valid_ && pos >= 0 && pos < m_ &&
         static_cast<int>(alpha.size()) == m_);
  const double piv = alpha[pos];
  if (std::abs(piv) < kUpdatePivotTol) return false;
  eta_pos_.push_back(pos);
  eta_pivot_.push_back(piv);
  for (int i = 0; i < m_; ++i) {
    if (i == pos) continue;
    const double v = alpha[i];
    if (std::abs(v) > kDropTol) eta_entries_.emplace_back(i, v);
  }
  eta_start_.push_back(static_cast<int>(eta_entries_.size()));
  return true;
}

void BasisLu::applyEtasFtran(std::vector<double>& x) const {
  // E = I except column r = alpha; solve E w = v in sequence:
  //   w_r = v_r / alpha_r,  w_i = v_i - alpha_i * w_r.
  const int n_eta = static_cast<int>(eta_pos_.size());
  for (int e = 0; e < n_eta; ++e) {
    const int r = eta_pos_[e];
    const double wr = x[r] / eta_pivot_[e];
    x[r] = wr;
    if (wr != 0.0) {
      for (int t = eta_start_[e]; t < eta_start_[e + 1]; ++t)
        x[eta_entries_[t].first] -= eta_entries_[t].second * wr;
    }
  }
}

void BasisLu::applyEtasBtran(std::vector<double>& x) const {
  // Solve E^T w = v, most recent eta first:
  //   w_i = v_i (i != r),  w_r = (v_r - sum_{i != r} alpha_i v_i) / alpha_r.
  for (int e = static_cast<int>(eta_pos_.size()) - 1; e >= 0; --e) {
    const int r = eta_pos_[e];
    double v = x[r];
    for (int t = eta_start_[e]; t < eta_start_[e + 1]; ++t)
      v -= eta_entries_[t].second * x[eta_entries_[t].first];
    x[r] = v / eta_pivot_[e];
  }
}

}  // namespace pdw::ilp
