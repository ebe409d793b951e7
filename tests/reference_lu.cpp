#include "reference_lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdw::ilp::reference {
namespace {

// BasisLu's tolerances.
constexpr double kAbsPivotTol = 1e-11;
constexpr double kRelPivotTol = 0.05;
constexpr double kDropTol = 1e-13;

}  // namespace

bool ReferenceLu::factor(int m,
                         const std::vector<BasisLu::SparseColumn>& cols) {
  assert(static_cast<int>(cols.size()) == m);
  m_ = m;
  prow_.clear();
  pcol_.clear();
  diag_.clear();
  l_start_.clear();
  l_entries_.clear();
  u_start_.clear();
  u_entries_.clear();
  return m == 0 || factorSparse(cols);
}

bool ReferenceLu::factorSparse(
    const std::vector<BasisLu::SparseColumn>& cols) {
  const int m = m_;
  std::vector<std::vector<std::pair<int, double>>> rows(m);
  std::vector<int> col_count(m, 0);
  for (int pos = 0; pos < m; ++pos) {
    for (const auto& [row, val] : cols[pos]) {
      if (val == 0.0) continue;
      rows[row].emplace_back(pos, val);
      ++col_count[pos];
    }
  }
  // Candidate rows per position, appended lazily; may hold stale rows.
  std::vector<std::vector<int>> col_rows(m);
  for (int i = 0; i < m; ++i)
    for (const auto& [pos, val] : rows[i]) col_rows[pos].push_back(i);

  std::vector<char> row_active(m, 1);
  std::vector<double> acc(m, 0.0);
  std::vector<int> acc_stamp(m, -1);
  int stamp = 0;

  for (int k = 0; k < m; ++k) {
    // Markowitz pivot search over every active entry.
    int piv_row = -1, piv_pos = -1;
    double piv_val = 0.0;
    long best_cost = -1;
    double best_mag = 0.0;
    for (int i = 0; i < m; ++i) {
      if (!row_active[i]) continue;
      const auto& row = rows[i];
      if (row.empty()) continue;
      double row_max = 0.0;
      for (const auto& [pos, val] : row)
        row_max = std::max(row_max, std::abs(val));
      if (row_max < kAbsPivotTol) continue;
      const double mag_floor = std::max(kAbsPivotTol, kRelPivotTol * row_max);
      const long rc = static_cast<long>(row.size()) - 1;
      for (const auto& [pos, val] : row) {
        const double mag = std::abs(val);
        if (mag < mag_floor) continue;
        const long cost = rc * (static_cast<long>(col_count[pos]) - 1);
        const bool better =
            best_cost < 0 || cost < best_cost ||
            (cost == best_cost &&
             (mag > best_mag ||
              (mag == best_mag &&
               (i < piv_row || (i == piv_row && pos < piv_pos)))));
        if (better) {
          best_cost = cost;
          best_mag = mag;
          piv_row = i;
          piv_pos = pos;
          piv_val = val;
        }
      }
    }
    if (piv_row < 0) return false;  // singular

    prow_.push_back(piv_row);
    pcol_.push_back(piv_pos);
    diag_.push_back(piv_val);
    row_active[piv_row] = 0;

    std::vector<std::pair<int, double>>& prow_entries = rows[piv_row];
    u_start_.push_back(static_cast<int>(u_entries_.size()));
    for (const auto& [pos, val] : prow_entries) {
      --col_count[pos];
      if (pos == piv_pos) continue;
      u_entries_.emplace_back(pos, val);
    }

    l_start_.push_back(static_cast<int>(l_entries_.size()));
    std::vector<int>& cand = col_rows[piv_pos];
    for (int i : cand) {
      if (!row_active[i]) continue;
      std::vector<std::pair<int, double>>& row = rows[i];
      double v = 0.0;
      bool found = false;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos) {
          v = val;
          found = true;
          break;
        }
      }
      if (!found || v == 0.0) continue;
      const double mult = v / piv_val;
      l_entries_.emplace_back(i, mult);

      ++stamp;
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos) continue;
        acc[pos] = val;
        acc_stamp[pos] = stamp;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos) continue;
        if (acc_stamp[pos] == stamp) {
          acc[pos] -= mult * val;
        } else {
          acc[pos] = -mult * val;
          acc_stamp[pos] = stamp;
        }
      }
      for (const auto& [pos, val] : row) --col_count[pos];
      std::vector<std::pair<int, double>> next;
      next.reserve(row.size() + prow_entries.size());
      for (const auto& [pos, val] : row) {
        if (pos == piv_pos || acc_stamp[pos] != stamp) continue;
        if (std::abs(acc[pos]) > kDropTol) next.emplace_back(pos, acc[pos]);
        acc_stamp[pos] = -1;
      }
      for (const auto& [pos, val] : prow_entries) {
        if (pos == piv_pos || acc_stamp[pos] != stamp) continue;
        if (std::abs(acc[pos]) > kDropTol) {
          next.emplace_back(pos, acc[pos]);
          col_rows[pos].push_back(i);
        }
        acc_stamp[pos] = -1;
      }
      row.swap(next);
      for (const auto& [pos, val] : row) ++col_count[pos];
    }
    cand.clear();
  }
  l_start_.push_back(static_cast<int>(l_entries_.size()));
  u_start_.push_back(static_cast<int>(u_entries_.size()));
  work_.assign(m, 0.0);
  work2_.assign(m, 0.0);
  return true;
}

std::int64_t ReferenceLu::factorNonzeros() const {
  return static_cast<std::int64_t>(l_entries_.size()) +
         static_cast<std::int64_t>(u_entries_.size()) + m_;
}

void ReferenceLu::ftran(std::vector<double>& x) const {
  const int m = m_;
  if (m == 0) return;
  for (int k = 0; k < m; ++k) {
    const double xk = x[prow_[k]];
    if (xk != 0.0) {
      for (int e = l_start_[k]; e < l_start_[k + 1]; ++e)
        x[l_entries_[e].first] -= l_entries_[e].second * xk;
    }
  }
  std::vector<double>& sol = work_;
  for (int k = m - 1; k >= 0; --k) {
    double v = x[prow_[k]];
    for (int e = u_start_[k]; e < u_start_[k + 1]; ++e)
      v -= u_entries_[e].second * sol[u_entries_[e].first];
    sol[pcol_[k]] = v / diag_[k];
  }
  x.swap(sol);
}

void ReferenceLu::btran(std::vector<double>& x) const {
  const int m = m_;
  if (m == 0) return;
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

}  // namespace pdw::ilp::reference
