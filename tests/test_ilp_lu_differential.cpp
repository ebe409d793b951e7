// Bit-identity suite for BasisLu's sparse factorization. BasisLu takes
// Markowitz pivots from a singleton queue and scans the remaining nucleus
// only when no singleton is left; the test-only ReferenceLu
// (reference_lu.h) scans every active entry at every step. Both must pick
// the same pivots, so their FTRAN/BTRAN results must agree byte for byte
// (std::memcmp), along with factor()'s return value and factorNonzeros()
// (DESIGN.md §12.3). Plans depend on this: node LPs are degenerate 0-1
// relaxations with alternative optima, so a last-bit change can flip a
// pricing or ratio-test tie.
//
// One BasisLu object serves every basis of a test, so the working storage
// it reuses across factor() calls of different sizes is exercised too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "ilp/basis_lu.h"
#include "ilp/lp_backend.h"
#include "ilp/revised_simplex.h"
#include "reference_lu.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace pdw::ilp {
namespace {

using Columns = std::vector<BasisLu::SparseColumn>;
using reference::ReferenceLu;

/// Outcomes and byte mismatches over the bases one test compared.
struct Tally {
  int sparse = 0;
  int singular = 0;
  long solves = 0;  ///< FTRAN + BTRAN pairs compared
  long mismatches = 0;
};

bool sameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Compare one FTRAN and one BTRAN of `rhs` between the two factorizations.
void compareSolves(const BasisLu& lu, const ReferenceLu& ref,
                   const std::vector<double>& rhs, Tally* tally) {
  std::vector<double> x = rhs, x_ref = rhs;
  lu.ftran(x);
  ref.ftran(x_ref);
  std::vector<double> y = rhs, y_ref = rhs;
  lu.btran(y);
  ref.btran(y_ref);
  ++tally->solves;
  if (!sameBytes(x, x_ref)) ++tally->mismatches;
  if (!sameBytes(y, y_ref)) ++tally->mismatches;
}

/// Factor `cols` with both and compare everything observable: the return
/// value, and — when the basis is nonsingular — factorNonzeros() and FTRAN
/// and BTRAN of every unit vector and of `random_vectors` random vectors.
void compareFactor(BasisLu& lu, const Columns& cols, util::Rng& rng,
                   Tally* tally, int random_vectors = 4) {
  const int m = static_cast<int>(cols.size());
  ReferenceLu ref;
  const bool ref_ok = ref.factor(m, cols);
  const bool ok = lu.factor(m, cols);
  if (!ref_ok) {
    ++tally->singular;
    EXPECT_FALSE(ok) << "m=" << m;
    return;
  }
  ++tally->sparse;
  ASSERT_TRUE(ok) << "m=" << m;
  EXPECT_EQ(lu.factorNonzeros(), ref.factorNonzeros()) << "m=" << m;
  std::vector<double> e(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    e[static_cast<std::size_t>(i)] = 1.0;
    compareSolves(lu, ref, e, tally);
    e[static_cast<std::size_t>(i)] = 0.0;
  }
  for (int t = 0; t < random_vectors; ++t) {
    std::vector<double> v(static_cast<std::size_t>(m));
    for (double& x : v) x = 2.0 * rng.uniform() - 1.0;
    compareSolves(lu, ref, v, tally);
  }
}

void report(const Tally& tally) {
  ::testing::Test::RecordProperty("sparse", tally.sparse);
  ::testing::Test::RecordProperty("singular", tally.singular);
  ::testing::Test::RecordProperty("solves", static_cast<int>(tally.solves));
  EXPECT_EQ(tally.mismatches, 0) << "of " << 2 * tally.solves << " solves";
}

/// Engine-shaped basis: about `slack_frac` of the positions are unit slack
/// columns on distinct rows; every other position is a structural column
/// with an entry on one row no slack covers, a few random entries drawn
/// from `values`, and — for `dense_cols` of them — entries on about half
/// the rows.
Columns slackHeavyBasis(util::Rng& rng, int m, double slack_frac,
                        int dense_cols, const std::vector<double>& values) {
  std::vector<int> rows(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) rows[static_cast<std::size_t>(i)] = i;
  rng.shuffle(rows);
  const int slacks = std::min(m - 1, static_cast<int>(slack_frac * m));
  Columns cols(static_cast<std::size_t>(m));
  const auto pick = [&] { return values[rng.index(values.size())]; };
  for (int p = 0; p < m; ++p) {
    BasisLu::SparseColumn& col = cols[static_cast<std::size_t>(p)];
    const int home = rows[static_cast<std::size_t>(p)];
    if (p < slacks) {
      col.emplace_back(home, 1.0);
      continue;
    }
    std::map<int, double> entries{{home, pick()}};
    const bool dense = p - slacks < dense_cols;
    const int extra = dense ? m / 2 : rng.intIn(1, 4);
    for (int t = 0; t < extra; ++t) entries[rng.intIn(0, m - 1)] = pick();
    for (const auto& [row, value] : entries) col.emplace_back(row, value);
  }
  rng.shuffle(cols);
  return cols;
}

TEST(LuDifferential, SlackHeavyRandomBases) {
  util::Rng rng(2024);
  const std::vector<double> values{1.0,  -1.0, 2.5,   -0.75, 10.0,
                                   60.0, -3.0, 0.125, 1000.0};
  BasisLu lu;
  Tally tally;
  for (int m : {3, 8, 40, 120, 300}) {
    for (int trial = 0; trial < 6; ++trial) {
      const int dense_cols = m >= 40 ? rng.intIn(1, 3) : 0;
      compareFactor(lu, slackHeavyBasis(rng, m, 0.75, dense_cols, values),
                    rng, &tally);
    }
  }
  EXPECT_GE(tally.sparse, 20);
  report(tally);
}

TEST(LuDifferential, UnitMagnitudeTies) {
  // Every entry is ±1, so magnitudes tie across rows and within each row
  // and the row and position tie-breaks decide every pivot.
  util::Rng rng(77);
  const std::vector<double> values{1.0, -1.0};
  BasisLu lu;
  Tally tally;
  for (int m : {5, 16, 64, 200}) {
    for (int trial = 0; trial < 6; ++trial) {
      const double slack_frac = trial % 2 == 0 ? 0.75 : 0.3;
      compareFactor(lu, slackHeavyBasis(rng, m, slack_frac, 1, values), rng,
                    &tally);
    }
  }
  EXPECT_GE(tally.sparse, 10);
  report(tally);
}

TEST(LuDifferential, EntriesAtRelativeThreshold) {
  // Rows whose largest entry is 20 put the 0.05 relative floor at
  // 0.05 * 20; entries one ulp below, at and one ulp above it decide
  // admissibility, including for unit slack entries.
  const double floor = 0.05 * 20.0;
  const std::vector<double> values{
      20.0,  -20.0, std::nextafter(floor, 0.0), floor,
      std::nextafter(floor, 2.0), -std::nextafter(floor, 0.0), 1.0, 0.5};
  util::Rng rng(5);
  BasisLu lu;
  Tally tally;
  for (int m : {6, 24, 90}) {
    for (int trial = 0; trial < 8; ++trial)
      compareFactor(lu, slackHeavyBasis(rng, m, 0.5, 1, values), rng,
                    &tally);
  }
  EXPECT_GE(tally.sparse, 10);
  report(tally);
}

TEST(LuDifferential, EntriesBelowDropTolerance) {
  // Entries at or below the 1e-13 drop tolerance survive until their row is
  // eliminated into; dropping one there lowers its column's count, which
  // can leave a new column singleton on another row.
  util::Rng rng(17);
  const std::vector<double> tiny{1e-13, -5e-14, 3e-15};
  BasisLu lu;
  Tally tally;
  for (int m : {10, 30, 80}) {
    for (int trial = 0; trial < 10; ++trial) {
      Columns cols = slackHeavyBasis(rng, m, 0.5, 1, {1.0, -2.0, 40.0});
      for (BasisLu::SparseColumn& col : cols) {
        if (!rng.chance(0.3)) continue;
        const int row = rng.intIn(0, m - 1);
        if (std::none_of(col.begin(), col.end(),
                         [row](const std::pair<int, double>& e) {
                           return e.first == row;
                         }))
          col.emplace_back(row, tiny[rng.index(tiny.size())]);
      }
      compareFactor(lu, cols, rng, &tally);
    }
  }
  EXPECT_GE(tally.sparse, 5);
  report(tally);
}

/// Rows 0..2 of a block that, pivoting (0, p0) first, cancels row 1's p1
/// entry exactly (6 - 2 * 3 == 0): row 1 becomes a row singleton and column
/// p1 a column singleton on row 2. `scale` is a power of two, so the
/// cancellation stays exact.
void addCancellingBlock(Columns* cols, int row0, int p0, double scale) {
  (*cols)[static_cast<std::size_t>(p0)] = {{row0, 1.0 * scale},
                                           {row0 + 1, 2.0 * scale}};
  (*cols)[static_cast<std::size_t>(p0 + 1)] = {
      {row0, 3.0 * scale}, {row0 + 1, 6.0 * scale}, {row0 + 2, 1.0 * scale}};
  (*cols)[static_cast<std::size_t>(p0 + 2)] = {{row0 + 1, 1.0 * scale},
                                               {row0 + 2, 0.5 * scale}};
}

TEST(LuDifferential, CancellationCreatesColumnSingleton) {
  BasisLu lu;
  Tally tally;
  util::Rng rng(31);

  // The bare block: no singleton at the start, so the nucleus scan picks
  // (0, p0); the cancellation then hands the queue both new singletons.
  Columns block(3);
  addCancellingBlock(&block, 0, 0, 1.0);
  compareFactor(lu, block, rng, &tally);
  ReferenceLu ref;
  ASSERT_TRUE(ref.factor(3, block));
  // Three pivots, L multipliers 2 (row 1) and 0.5 (row 2), and one U entry
  // (row 0's p1); row 1's p1 entry cancelled away.
  EXPECT_EQ(ref.factorNonzeros(), 3 + 2 + 1);

  // Blocks at several scales on the leading rows, a slack-heavy basis on the
  // rest, and a few entries coupling block columns into the rest (block
  // triangular, so nonsingular).
  for (int m : {12, 40, 100}) {
    for (int trial = 0; trial < 6; ++trial) {
      const int blocks = m / 12;
      const int lead = 3 * blocks;
      Columns cols(static_cast<std::size_t>(m));
      for (int b = 0; b < blocks; ++b) {
        addCancellingBlock(&cols, 3 * b, 3 * b,
                           std::ldexp(1.0, rng.intIn(-3, 3)));
        if (rng.chance(0.5))
          cols[static_cast<std::size_t>(3 * b + rng.intIn(0, 2))].emplace_back(
              rng.intIn(lead, m - 1), 1.5);
      }
      const Columns rest =
          slackHeavyBasis(rng, m - lead, 0.6, 0, {1.0, -2.0, 4.0});
      for (int p = 0; p < m - lead; ++p)
        for (const auto& [row, value] : rest[static_cast<std::size_t>(p)])
          cols[static_cast<std::size_t>(lead + p)].emplace_back(lead + row,
                                                                 value);
      rng.shuffle(cols);
      compareFactor(lu, cols, rng, &tally);
    }
  }
  EXPECT_GE(tally.sparse, 5);
  report(tally);
}

TEST(LuDifferential, SingularBases) {
  util::Rng rng(13);
  const std::vector<double> values{1.0, -1.0, 2.0, 0.5, 8.0};
  BasisLu lu;
  Tally tally;
  for (int m : {4, 20, 60}) {
    for (int trial = 0; trial < 4; ++trial) {
      Columns cols = slackHeavyBasis(rng, m, 0.7, 0, values);
      switch (trial) {
        case 0:  // duplicated column
          cols[1] = cols[0];
          break;
        case 1:  // structurally empty column
          cols[static_cast<std::size_t>(m / 2)].clear();
          break;
        case 2:  // a row nobody touches
          for (BasisLu::SparseColumn& col : cols)
            col.erase(std::remove_if(col.begin(), col.end(),
                                     [](const std::pair<int, double>& e) {
                                       return e.first == 0;
                                     }),
                      col.end());
          break;
        default:  // column below the absolute pivot tolerance
          for (auto& [row, value] : cols[2]) value *= 1e-13;
          break;
      }
      compareFactor(lu, cols, rng, &tally);
      // A good basis right after a singular one factors cleanly.
      compareFactor(lu, slackHeavyBasis(rng, m, 0.7, 0, values), rng,
                    &tally);
    }
  }
  EXPECT_GE(tally.singular, 6);
  report(tally);
}

TEST(LuDifferential, FillHeavyBases) {
  // Random bases with about 16 entries per column whose elimination fills
  // in heavily: the factors hold more than 0.30 * m^2 nonzeros, close to a
  // third of a dense LU's m^2. Sparse bases are interleaved so the reused
  // working storage sees both.
  util::Rng rng(99);
  BasisLu lu;
  Tally tally;
  for (int trial = 0; trial < 8; ++trial) {
    const int m = rng.intIn(120, 160);
    Columns cols(static_cast<std::size_t>(m));
    for (int p = 0; p < m; ++p) {
      std::map<int, double> entries{{p, 4.0 + rng.uniform()}};
      for (int t = 0; t < 16; ++t)
        entries[rng.intIn(0, m - 1)] = 2.0 * rng.uniform() - 1.0;
      for (const auto& [row, value] : entries)
        cols[static_cast<std::size_t>(p)].emplace_back(row, value);
    }
    compareFactor(lu, cols, rng, &tally);
    ASSERT_TRUE(lu.valid()) << "m=" << m;
    EXPECT_GT(static_cast<double>(lu.factorNonzeros()),
              0.30 * static_cast<double>(m) * m)
        << "m=" << m;
    compareFactor(lu, slackHeavyBasis(rng, m, 0.75, 2, {1.0, -3.0, 0.5}), rng,
                  &tally);
  }
  report(tally);
}

// ---- bases from real pipeline models ---------------------------------------

/// Structural columns of one model handed to makeLpBackend(), merged the
/// way the engine's CSC merges them (duplicates summed, zeros dropped).
struct CapturedModel {
  int rows = 0;
  Columns cols;
};

std::vector<CapturedModel>* g_captured = nullptr;

std::unique_ptr<LpBackend> capturingFactory(const Model& model,
                                            const SolveParams& params) {
  CapturedModel captured;
  captured.rows = model.numConstraints();
  std::vector<std::map<int, double>> merged(
      static_cast<std::size_t>(model.numVars()));
  for (int i = 0; i < captured.rows; ++i)
    for (const auto& [var, coeff] : model.constraint(i).expr.terms())
      merged[static_cast<std::size_t>(var)][i] += coeff;
  for (const std::map<int, double>& col : merged) {
    BasisLu::SparseColumn out;
    for (const auto& [row, value] : col)
      if (value != 0.0) out.emplace_back(row, value);
    captured.cols.push_back(std::move(out));
  }
  g_captured->push_back(std::move(captured));
  return std::make_unique<RevisedSimplex>(model, params);
}

/// Models of one short PDW run of `id`, captured at makeLpBackend().
std::vector<CapturedModel> captureModels(assay::BenchmarkId id) {
  std::vector<CapturedModel> captured;
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

/// A basis over `model`: up to a quarter of the rows' worth of random
/// structural columns, each matched to a row it touches, completed with the
/// slack columns of the unmatched rows. A column touching no row matched
/// before it keeps the basis block triangular and so nonsingular; the
/// first `free_cols` columns skip that rule and may make it singular.
Columns modelBasis(const CapturedModel& model, util::Rng& rng,
                   int free_cols) {
  const int m = model.rows;
  const int n = static_cast<int>(model.cols.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) order[static_cast<std::size_t>(j)] = j;
  rng.shuffle(order);
  std::vector<char> matched(static_cast<std::size_t>(m), 0);
  Columns cols;
  const int want = std::max(1, m / 4);
  for (int j : order) {
    if (static_cast<int>(cols.size()) >= want) break;
    const BasisLu::SparseColumn& col = model.cols[static_cast<std::size_t>(j)];
    if (col.empty()) continue;
    const bool free = static_cast<int>(cols.size()) < free_cols;
    const bool touches_matched = std::any_of(
        col.begin(), col.end(), [&](const std::pair<int, double>& e) {
          return matched[static_cast<std::size_t>(e.first)] != 0;
        });
    if (touches_matched && !free) continue;
    const std::size_t start = rng.index(col.size());
    for (std::size_t t = 0; t < col.size(); ++t) {
      const int row = col[(start + t) % col.size()].first;
      if (matched[static_cast<std::size_t>(row)]) continue;
      matched[static_cast<std::size_t>(row)] = 1;
      cols.push_back(col);
      break;
    }
  }
  for (int i = 0; i < m; ++i)
    if (!matched[static_cast<std::size_t>(i)]) cols.push_back({{i, 1.0}});
  rng.shuffle(cols);
  return cols;
}

TEST(LuDifferential, PipelineModelBases) {
  util::Rng rng(404);
  BasisLu lu;
  Tally tally;
  int models = 0;
  // The floor below gates on the factorizations compared, not on how many
  // LP engines a run builds (one per MIP solve and per pure LP): a pipeline
  // change that solves fewer MIPs must still meet it, with more benchmarks
  // or a denser sample.
  for (assay::BenchmarkId id :
       {assay::BenchmarkId::Pcr, assay::BenchmarkId::Ivd,
        assay::BenchmarkId::KinaseAct1}) {
    const std::vector<CapturedModel> captured = captureModels(id);
    // Every 2nd model, plus the largest one, with three bases each.
    std::size_t largest = 0;
    for (std::size_t k = 0; k < captured.size(); ++k)
      if (captured[k].rows > captured[largest].rows) largest = k;
    for (std::size_t k = 0; k < captured.size(); ++k) {
      if (k % 2 != 0 && k != largest) continue;
      if (captured[k].rows == 0) continue;
      ++models;
      for (int free_cols : {0, 2, 8})
        compareFactor(lu, modelBasis(captured[k], rng, free_cols), rng,
                      &tally, 2);
    }
  }
  RecordProperty("models", models);
  EXPECT_GE(tally.sparse, 30);
  report(tally);
}

}  // namespace
}  // namespace pdw::ilp
