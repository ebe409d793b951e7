#include "ilp/pricing.h"

#include <bit>
#include <cstring>

namespace pdw::ilp {

Csc buildCsc(const Model& model) {
  const int m = model.numConstraints();
  const std::size_t n = static_cast<std::size_t>(model.numVars());
  Csc csc;
  // Count pass (duplicates counted, merged during the compaction below).
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < m; ++i)
    for (const auto& [var, coeff] : model.constraint(i).expr.terms())
      ++counts[static_cast<std::size_t>(var) + 1];
  csc.col_start.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j)
    csc.col_start[j + 1] = csc.col_start[j] + counts[j + 1];
  const std::size_t raw_nnz = static_cast<std::size_t>(csc.col_start[n]);
  csc.row_index.resize(raw_nnz);
  csc.value.resize(raw_nnz);
  std::vector<int> cursor(csc.col_start.begin(), csc.col_start.end() - 1);
  for (int i = 0; i < m; ++i) {
    for (const auto& [var, coeff] : model.constraint(i).expr.terms()) {
      const int slot = cursor[static_cast<std::size_t>(var)]++;
      csc.row_index[static_cast<std::size_t>(slot)] = i;
      csc.value[static_cast<std::size_t>(slot)] = coeff;
    }
  }
  // Rows land in ascending order per column already (outer loop over rows),
  // so merging duplicates is a linear compaction.
  std::size_t out = 0;
  std::vector<int> merged_start(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    merged_start[j] = static_cast<int>(out);
    std::size_t k = static_cast<std::size_t>(csc.col_start[j]);
    const std::size_t end = static_cast<std::size_t>(csc.col_start[j + 1]);
    while (k < end) {
      const int row = csc.row_index[k];
      double v = csc.value[k];
      ++k;
      while (k < end && csc.row_index[k] == row) {
        v += csc.value[k];
        ++k;
      }
      if (v != 0.0) {
        csc.row_index[out] = row;
        csc.value[out] = v;
        ++out;
      }
    }
  }
  merged_start[n] = static_cast<int>(out);
  csc.row_index.resize(out);
  csc.value.resize(out);
  csc.col_start = std::move(merged_start);
  return csc;
}

Csr buildCsr(const Csc& csc, int rows) {
  const std::size_t n = csc.col_start.size() - 1;
  Csr csr;
  csr.row_start.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (const int row : csc.row_index)
    ++csr.row_start[static_cast<std::size_t>(row) + 1];
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows); ++i)
    csr.row_start[i + 1] += csr.row_start[i];
  csr.col_index.resize(csc.row_index.size());
  csr.value.resize(csc.value.size());
  std::vector<int> cursor(csr.row_start.begin(), csr.row_start.end() - 1);
  for (std::size_t j = 0; j < n; ++j)
    for (int k = csc.col_start[j]; k < csc.col_start[j + 1]; ++k) {
      const auto slot = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(csc.row_index[
              static_cast<std::size_t>(k)])]++);
      csr.col_index[slot] = static_cast<int>(j);
      csr.value[slot] = csc.value[static_cast<std::size_t>(k)];
    }
  return csr;
}

void appendCutRows(const std::vector<LpBackend::CutRow>& rows, Csc* csc,
                   Csr* csr) {
  const int n = static_cast<int>(csc->col_start.size()) - 1;
  const int old_m = static_cast<int>(csr->row_start.size()) - 1;
  // Per-column new entries arrive in ascending row order (cut k lands on
  // row old_m + k), so appending them after each column's existing entries
  // keeps rows sorted within columns. The row-wise copy takes the same
  // entries in term order.
  std::vector<std::vector<std::pair<int, double>>> extra(
      static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < rows.size(); ++k) {
    for (const auto& [v, c] : rows[k].terms) {
      if (v < 0 || v >= n || c == 0.0) continue;
      extra[static_cast<std::size_t>(v)].emplace_back(
          old_m + static_cast<int>(k), c);
      csr->col_index.push_back(v);
      csr->value.push_back(c);
    }
    csr->row_start.push_back(static_cast<int>(csr->col_index.size()));
  }
  Csc next;
  next.col_start.resize(static_cast<std::size_t>(n) + 1);
  next.col_start[0] = 0;
  for (int j = 0; j < n; ++j) {
    const int old_len = csc->col_start[static_cast<std::size_t>(j) + 1] -
                        csc->col_start[static_cast<std::size_t>(j)];
    next.col_start[static_cast<std::size_t>(j) + 1] =
        next.col_start[static_cast<std::size_t>(j)] + old_len +
        static_cast<int>(extra[static_cast<std::size_t>(j)].size());
  }
  next.row_index.reserve(static_cast<std::size_t>(next.col_start.back()));
  next.value.reserve(static_cast<std::size_t>(next.col_start.back()));
  for (int j = 0; j < n; ++j) {
    for (int k = csc->col_start[static_cast<std::size_t>(j)];
         k < csc->col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      next.row_index.push_back(csc->row_index[static_cast<std::size_t>(k)]);
      next.value.push_back(csc->value[static_cast<std::size_t>(k)]);
    }
    for (const auto& [row, coeff] : extra[static_cast<std::size_t>(j)]) {
      next.row_index.push_back(row);
      next.value.push_back(coeff);
    }
  }
  *csc = std::move(next);
}

void PivotRowPricer::price(const Csr& csr, int n,
                           const std::vector<double>& rho) {
  const int m = static_cast<int>(rho.size());
  // Every structural entry the last row did not write is still +0.
  for (std::size_t k = 0; k < structural_; ++k)
    row_[static_cast<std::size_t>(candidates_[k])] = 0.0;
  row_.resize(static_cast<std::size_t>(n + m));
  touched_.resize((static_cast<std::size_t>(n) + 7) / 8 * 8);
  nonzero_rows_.resize(static_cast<std::size_t>(m));
  candidates_.resize(static_cast<std::size_t>(n + m));
  // The loops below index through pointers held in locals: a store through
  // a vector's element (a byte store above all) would otherwise make the
  // compiler reload every vector's data pointer after it.
  double* const row = row_.data();
  int* const nonzero_rows = nonzero_rows_.data();
  int* const candidates = candidates_.data();
  const double* const r = rho.data();
  const int* const row_start = csr.row_start.data();
  const int* const col_index = csr.col_index.data();
  const double* const value = csr.value.data();
  unsigned char* const touched = touched_.data();

  // Branch-free compaction: rho's zero pattern would defeat a branch.
  int nonzeros = 0;
  for (int i = 0; i < m; ++i) {
    row[n + i] = r[i];
    nonzero_rows[nonzeros] = i;
    nonzeros += r[i] != 0.0;
  }

  // A column's entry starts at +0 and adds A_ij * rho_i over ascending i,
  // as the column-wise dot product does. The rows skipped have
  // rho_i = +-0 and would only add +-0, which never changes a sum that
  // starts at +0.
  for (int t = 0; t < nonzeros; ++t) {
    const int i = nonzero_rows[t];
    const double ri = r[i];
    const int end = row_start[i + 1];
    for (int k = row_start[i]; k < end; ++k) {
      const int j = col_index[k];
      row[j] += value[k] * ri;
      touched[j] = 1;
    }
  }
  // Eight marks per 64-bit word; on a little-endian machine the lowest set
  // bit is the lowest column.
  static_assert(std::endian::native == std::endian::little);
  int count = 0;
  const int marks = static_cast<int>(touched_.size());
  for (int w = 0; w < marks; w += 8) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, touched + w, sizeof bits);
    if (bits == 0) continue;
    std::memset(touched + w, 0, sizeof bits);
    while (bits != 0) {
      candidates[count++] = w + (std::countr_zero(bits) >> 3);
      bits &= bits - 1;
    }
  }
  structural_ = static_cast<std::size_t>(count);
  for (int t = 0; t < nonzeros; ++t) candidates[count++] = n + nonzero_rows[t];
  count_ = static_cast<std::size_t>(count);
}

}  // namespace pdw::ilp
