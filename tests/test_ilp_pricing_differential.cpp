// Bit-identity suite for the dual simplex pivot row (pricing.h). The
// production PivotRowPricer scatters rho_i * A_i over the rows with
// rho_i != 0 through a row-wise copy of the constraint matrix; the
// column-wise reference below is the loop it replaced, one dot product per
// nonbasic column over ascending rows. Every nonbasic entry must agree
// byte for byte (std::memcmp), and every nonbasic column with a nonzero
// entry must be among the pricer's candidates, which must ascend: the
// ratio test and the reduced-cost update visit only those, so a missing
// or misordered candidate would move a pivot (DESIGN.md §12.2–12.3).
//
// One pricer serves every row of a test, across bases and matrix growth,
// so the clearing of what the previous row wrote is exercised too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "ilp/basis_lu.h"
#include "ilp/lp_backend.h"
#include "ilp/pricing.h"
#include "ilp/revised_simplex.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

/// The column-wise pivot row: for each nonbasic structural column the
/// dot product of its entries with rho over ascending rows, and rho_i for
/// the slack column of row i. Basic entries are left at 0.
std::vector<double> referencePrice(const Csc& csc,
                                   const std::vector<double>& rho,
                                   const std::vector<int>& pos_of) {
  const int n = static_cast<int>(csc.col_start.size()) - 1;
  const int m = static_cast<int>(rho.size());
  std::vector<double> row(static_cast<std::size_t>(n + m), 0.0);
  for (int j = 0; j < n + m; ++j) {
    if (pos_of[static_cast<std::size_t>(j)] >= 0) continue;
    double v = 0.0;
    if (j < n) {
      for (int k = csc.col_start[static_cast<std::size_t>(j)];
           k < csc.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        v += csc.value[static_cast<std::size_t>(k)] *
             rho[static_cast<std::size_t>(
                 csc.row_index[static_cast<std::size_t>(k)])];
    } else {
      v = rho[static_cast<std::size_t>(j - n)];
    }
    row[static_cast<std::size_t>(j)] = v;
  }
  return row;
}

struct Tally {
  long rows = 0;      ///< pivot rows priced
  long entries = 0;   ///< nonbasic entries compared
  long nonzero = 0;   ///< of which nonzero (NaN included)
  long mismatches = 0;
  long missing = 0;   ///< nonzero nonbasic entries outside the candidates
  long unordered = 0; ///< candidate lists that do not strictly ascend
  long dense = 0;     ///< rows with more than kDenseRho of rho nonzero
};

/// A rho with more than this share of nonzeros counts as dense. No pivot
/// row of PDW's models reaches it (DESIGN.md §12.2), so only the random
/// rows below test the scatter on dense rho.
constexpr double kDenseRho = 0.65;

/// Price `rho` with both and compare every nonbasic entry.
void compareRow(PivotRowPricer& pricer, const Csc& csc, const Csr& csr,
                const std::vector<double>& rho,
                const std::vector<int>& pos_of, Tally* tally) {
  const int n = static_cast<int>(csc.col_start.size()) - 1;
  pricer.price(csr, n, rho);
  const std::vector<double> ref = referencePrice(csc, rho, pos_of);
  const std::vector<double>& row = pricer.row();
  ++tally->rows;
  const auto nonzeros = std::count_if(rho.begin(), rho.end(),
                                      [](double r) { return r != 0.0; });
  if (static_cast<double>(nonzeros) >
      kDenseRho * static_cast<double>(rho.size()))
    ++tally->dense;
  ASSERT_EQ(row.size(), ref.size());
  std::vector<char> candidate(ref.size(), 0);
  const std::span<const int> cands = pricer.candidates();
  for (std::size_t k = 0; k < cands.size(); ++k) {
    candidate[static_cast<std::size_t>(cands[k])] = 1;
    if (k > 0 && cands[k] <= cands[k - 1]) {
      ++tally->unordered;
      break;
    }
  }
  for (std::size_t j = 0; j < ref.size(); ++j) {
    if (pos_of[j] >= 0) continue;
    ++tally->entries;
    if (std::memcmp(&row[j], &ref[j], sizeof(double)) != 0)
      ++tally->mismatches;
    if (ref[j] != 0.0) {  // NaN included
      ++tally->nonzero;
      if (!candidate[j]) ++tally->missing;
    }
  }
}

void report(const Tally& t) {
  ::testing::Test::RecordProperty("rows", static_cast<int>(t.rows));
  ::testing::Test::RecordProperty("entries", static_cast<int>(t.entries));
  EXPECT_EQ(t.mismatches, 0) << "of " << t.entries << " entries";
  EXPECT_EQ(t.missing, 0) << "of " << t.nonzero << " nonzero entries";
  EXPECT_EQ(t.unordered, 0) << "of " << t.rows << " rows";
}

/// A random basis over n + m columns: about `structural_share` of the m
/// positions go to structural columns, the rest to slacks.
std::vector<int> randomBasis(util::Rng& rng, int n, int m,
                             double structural_share) {
  std::vector<int> pos_of(static_cast<std::size_t>(n + m), -1);
  std::vector<int> cols;
  for (int j = 0; j < n; ++j)
    if (rng.chance(structural_share * m / std::max(n, 1))) cols.push_back(j);
  rng.shuffle(cols);
  if (static_cast<int>(cols.size()) > m) cols.resize(static_cast<std::size_t>(m));
  std::vector<int> slacks;
  for (int i = 0; i < m; ++i) slacks.push_back(n + i);
  rng.shuffle(slacks);
  for (int s : slacks) {
    if (static_cast<int>(cols.size()) >= m) break;
    cols.push_back(s);
  }
  for (std::size_t p = 0; p < cols.size(); ++p)
    pos_of[static_cast<std::size_t>(cols[p])] = static_cast<int>(p);
  return pos_of;
}

/// A value for rho: mostly ordinary magnitudes, with signed zeros,
/// subnormals, +-1e300 and +-1 mixed in when `special`.
double rhoValue(util::Rng& rng, bool special) {
  if (special) {
    switch (rng.intIn(0, 9)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:
        return rng.chance(0.5) ? 4.9406564584124654e-324 : -2.5e-310;
      case 3:
        return rng.chance(0.5) ? 1e300 : -1e300;
      case 4:
        return rng.chance(0.5) ? 1.0 : -1.0;
      default:
        break;
    }
  }
  return (rng.uniform() - 0.5) * std::pow(10.0, rng.intIn(-6, 6));
}

std::vector<double> randomRho(util::Rng& rng, int m, double density,
                              bool special) {
  std::vector<double> rho(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    if (rng.chance(density)) {
      rho[static_cast<std::size_t>(i)] = rhoValue(rng, special);
    } else if (rng.chance(0.1)) {
      rho[static_cast<std::size_t>(i)] = -0.0;
    }
  }
  return rho;
}

/// A random sparse model: coefficients with few significant bits and
/// ordinary ones, so sums both cancel exactly and round.
Model randomModel(util::Rng& rng, int n, int m, double density) {
  Model model;
  std::vector<VarId> vars;
  for (int j = 0; j < n; ++j) vars.push_back(model.addContinuous(0.0, 10.0));
  for (int i = 0; i < m; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) {
      if (!rng.chance(density)) continue;
      const double c = rng.chance(0.5)
                           ? static_cast<double>(rng.intIn(-4, 4))
                           : (rng.uniform() - 0.5) * 1e3;
      e.add(vars[static_cast<std::size_t>(j)], c);
    }
    model.addLessEqual(e, 1.0);
  }
  return model;
}

/// Random cut rows over n columns with duplicate terms, zero coefficients,
/// terms out of variable order and variables outside [0, n).
std::vector<LpBackend::CutRow> randomCuts(util::Rng& rng, int n, int count) {
  std::vector<LpBackend::CutRow> cuts(static_cast<std::size_t>(count));
  for (LpBackend::CutRow& cut : cuts) {
    const int terms = rng.intIn(0, std::min(n, 12) + 3);
    for (int t = 0; t < terms; ++t) {
      int v = rng.intIn(0, n - 1);
      if (rng.chance(0.05)) v = rng.chance(0.5) ? -1 : n;
      double c = (rng.uniform() - 0.5) * 20.0;
      if (rng.chance(0.1)) c = 0.0;
      cut.terms.emplace_back(v, c);
      if (rng.chance(0.2)) cut.terms.emplace_back(v, -c);  // cancels
      if (rng.chance(0.2)) cut.terms.emplace_back(v, 0.5 * c);
    }
    cut.rhs = 1.0;
  }
  return cuts;
}

TEST(PricingDifferential, RandomMatricesWithCutRows) {
  util::Rng rng(2101);
  Tally tally;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.intIn(1, 80);
    int m = rng.intIn(1, 60);
    const double density = rng.chance(0.2) ? 0.6 : 0.08;
    const Model model = randomModel(rng, n, m, density);
    Csc csc = buildCsc(model);
    Csr csr = buildCsr(csc, m);
    PivotRowPricer pricer;
    for (int batch = 0; batch < 3; ++batch) {
      for (int draw = 0; draw < 8; ++draw) {
        const std::vector<int> pos_of =
            randomBasis(rng, n, m, rng.chance(0.5) ? 0.25 : 0.9);
        const double rho_density =
            std::vector<double>{0.02, 0.1, 0.3, 0.6, 1.0}[rng.index(5)];
        compareRow(pricer, csc, csr,
                   randomRho(rng, m, rho_density, rng.chance(0.3)), pos_of,
                   &tally);
      }
      const int added = rng.intIn(1, 6);
      appendCutRows(randomCuts(rng, n, added), &csc, &csr);
      m += added;
      ASSERT_EQ(static_cast<int>(csr.row_start.size()), m + 1);
      ASSERT_EQ(csr.col_index.size(), csc.row_index.size());
    }
  }
  EXPECT_GE(tally.nonzero, 10000);
  // Sparse and dense rho, each over hundreds of rows.
  EXPECT_GE(tally.dense, 200);
  EXPECT_GE(tally.rows - tally.dense, 500);
  report(tally);
}

TEST(PricingDifferential, SignedZerosSubnormalsAndHugeRho) {
  util::Rng rng(2102);
  Tally tally;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.intIn(5, 60);
    const int m = rng.intIn(5, 40);
    const Model model = randomModel(rng, n, m, 0.2);
    const Csc csc = buildCsc(model);
    const Csr csr = buildCsr(csc, m);
    PivotRowPricer pricer;
    for (int draw = 0; draw < 10; ++draw) {
      std::vector<double> rho(static_cast<std::size_t>(m));
      for (double& r : rho) r = rhoValue(rng, /*special=*/true);
      // All slacks nonbasic, so every rho_i is compared as an entry.
      std::vector<int> pos_of = randomBasis(rng, n, m, 1.0);
      for (int i = 0; i < m; ++i) pos_of[static_cast<std::size_t>(n + i)] = -1;
      compareRow(pricer, csc, csr, rho, pos_of, &tally);
    }
  }
  report(tally);
}

// ---- rows from real pipeline models ----------------------------------------

/// The constraint matrix of one model a short PDW run hands to
/// makeLpBackend(), built by the production buildCsc().
struct CapturedMatrix {
  int rows = 0;
  Csc csc;
};

std::vector<CapturedMatrix>* g_captured = nullptr;

std::unique_ptr<LpBackend> capturingFactory(const Model& model,
                                            const SolveParams& params) {
  g_captured->push_back({model.numConstraints(), buildCsc(model)});
  return std::make_unique<RevisedSimplex>(model, params);
}

std::vector<CapturedMatrix> captureMatrices(assay::BenchmarkId id) {
  std::vector<CapturedMatrix> captured;
  g_captured = &captured;
  const LpBackendFactory previous =
      substituteLpBackendForTesting(&capturingFactory);
  const assay::Benchmark b = assay::makeBenchmark(id);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(1)
                                 .withScheduleBudget(1e6, 20)
                                 .withPathBudget(1e6, 20);
  Pipeline(std::move(options)).run(base.schedule);
  substituteLpBackendForTesting(previous);
  g_captured = nullptr;
  return captured;
}

/// A slack-heavy basis: up to a quarter of the rows' worth of structural
/// columns, each matched to a row it touches that no earlier column
/// touches (so the basis is block triangular and nonsingular), the
/// unmatched rows' slacks completing it. pos_of maps columns to positions.
std::vector<BasisLu::SparseColumn> slackHeavyBasis(const CapturedMatrix& mat,
                                                   util::Rng& rng,
                                                   std::vector<int>* pos_of) {
  const int m = mat.rows;
  const int n = static_cast<int>(mat.csc.col_start.size()) - 1;
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) order[static_cast<std::size_t>(j)] = j;
  rng.shuffle(order);
  std::vector<char> matched(static_cast<std::size_t>(m), 0);
  std::vector<int> basis;
  for (int j : order) {
    if (static_cast<int>(basis.size()) >= std::max(1, m / 4)) break;
    const int begin = mat.csc.col_start[static_cast<std::size_t>(j)];
    const int end = mat.csc.col_start[static_cast<std::size_t>(j) + 1];
    bool touches = false;
    for (int k = begin; k < end; ++k)
      touches |= matched[static_cast<std::size_t>(
                     mat.csc.row_index[static_cast<std::size_t>(k)])] != 0;
    if (touches || begin == end) continue;
    matched[static_cast<std::size_t>(
        mat.csc.row_index[static_cast<std::size_t>(begin)])] = 1;
    basis.push_back(j);
  }
  for (int i = 0; i < m; ++i)
    if (!matched[static_cast<std::size_t>(i)]) basis.push_back(n + i);
  rng.shuffle(basis);
  pos_of->assign(static_cast<std::size_t>(n + m), -1);
  std::vector<BasisLu::SparseColumn> cols;
  for (std::size_t p = 0; p < basis.size(); ++p) {
    const int j = basis[p];
    (*pos_of)[static_cast<std::size_t>(j)] = static_cast<int>(p);
    BasisLu::SparseColumn col;
    if (j < n) {
      for (int k = mat.csc.col_start[static_cast<std::size_t>(j)];
           k < mat.csc.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        col.emplace_back(mat.csc.row_index[static_cast<std::size_t>(k)],
                         mat.csc.value[static_cast<std::size_t>(k)]);
    } else {
      col.emplace_back(j - n, 1.0);
    }
    cols.push_back(std::move(col));
  }
  return cols;
}

TEST(PricingDifferential, PipelineModelRows) {
  util::Rng rng(2103);
  Tally tally;
  int models = 0;
  long rho_nonzeros = 0;
  for (assay::BenchmarkId id :
       {assay::BenchmarkId::Pcr, assay::BenchmarkId::Ivd}) {
    // Every model the run builds: the floors below gate on the models and
    // entries compared, not on how many LP engines a run builds.
    const std::vector<CapturedMatrix> captured = captureMatrices(id);
    for (std::size_t k = 0; k < captured.size(); ++k) {
      const CapturedMatrix& mat = captured[k];
      if (mat.rows == 0) continue;
      ++models;
      const Csr csr = buildCsr(mat.csc, mat.rows);
      PivotRowPricer pricer;
      BasisLu lu;
      for (int basis = 0; basis < 2; ++basis) {
        std::vector<int> pos_of;
        ASSERT_TRUE(lu.factor(mat.rows, slackHeavyBasis(mat, rng, &pos_of)));
        for (int draw = 0; draw < 6; ++draw) {
          // rho = e_r^T B^{-1}, as the engine computes it.
          std::vector<double> rho(static_cast<std::size_t>(mat.rows), 0.0);
          rho[rng.index(rho.size())] = 1.0;
          lu.btran(rho);
          for (const double r : rho) rho_nonzeros += r != 0.0;
          compareRow(pricer, mat.csc, csr, rho, pos_of, &tally);
        }
      }
    }
  }
  RecordProperty("models", models);
  RecordProperty("rho_nonzeros", static_cast<int>(rho_nonzeros));
  EXPECT_GE(models, 10);
  EXPECT_GE(tally.nonzero, 1000);
  report(tally);
}

}  // namespace
}  // namespace pdw::ilp
