// Pivot-identity pin. Node LPs are degenerate 0-1 relaxations with
// alternative optima, so any change to the LP engine's arithmetic or pivot
// rules can move the search to another vertex and change a plan
// (DESIGN.md §12.2). A change meant to be bit-identical (a faster pricing
// loop, a reused buffer) must leave every pivot where it was; this suite
// fails on the first one that moves.
//
// Each case runs one Table-II benchmark through Pipeline::run at
// bench_ilp_solver's work caps (200 schedule / 20 path nodes per MIP, 3600 s
// wall limits no run reaches, 1 thread), so the work done depends only on
// the code. The run's registry deltas and a fingerprint of its canonical
// plan must equal the constants below. A change that moves pivots on
// purpose records the new constants and says so in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "obs/metric_names.h"
#include "service/protocol.h"
#include "sim/metrics.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"

namespace pdw {
namespace {

using assay::BenchmarkId;

/// The recorded work and plan of one benchmark's run.
struct Pin {
  BenchmarkId id;
  std::int64_t solves;
  std::int64_t nodes;
  std::int64_t iterations;
  std::int64_t dual_pivots;
  std::int64_t refactorizations;
  std::int64_t lp_solves;
  std::int64_t warm_hits;
  std::int64_t rc_fixed;
  int n_wash;
  double l_wash_mm;
  double t_assay;
  std::uint64_t plan_fnv;  ///< FNV-1a of service::canonicalPlan
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

class PivotPin : public ::testing::TestWithParam<Pin> {};

TEST_P(PivotPin, WorkAndPlanMatchRecordedRun) {
  const Pin& pin = GetParam();
  const assay::Benchmark b = assay::makeBenchmark(pin.id);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(1)
                                 .withScheduleBudget(3600.0, 200)
                                 .withPathBudget(3600.0, 20);
  const PdwResult result = Pipeline(std::move(options)).run(base.schedule);

  namespace names = obs::names;
  const obs::MetricsSnapshot& m = result.metrics;
  EXPECT_EQ(m.counter(names::kBbSolves), pin.solves);
  EXPECT_EQ(m.counter(names::kBbNodes), pin.nodes);
  EXPECT_EQ(m.counter(names::kSimplexIterations), pin.iterations);
  EXPECT_EQ(m.counter(names::kSimplexDualPivots), pin.dual_pivots);
  EXPECT_EQ(m.counter(names::kSimplexRefactorizations),
            pin.refactorizations);
  EXPECT_EQ(m.counter(names::kSimplexCalls), pin.lp_solves);
  EXPECT_EQ(m.counter(names::kSimplexWarmHits), pin.warm_hits);
  EXPECT_EQ(m.counter(names::kBbRcFixed), pin.rc_fixed);

  const sim::WashMetrics wm =
      sim::computeMetrics(result.schedule(), base.schedule);
  EXPECT_EQ(wm.n_wash, pin.n_wash);
  EXPECT_EQ(wm.l_wash_mm, pin.l_wash_mm);
  EXPECT_EQ(wm.t_assay, pin.t_assay);
  EXPECT_EQ(fnv1a(service::canonicalPlan(result.schedule())), pin.plan_fnv);
}

// Recorded with phase A plus the order search in place of phase B's
// free-order branch-and-bound (one pinned re-solve per accepted flip),
// one-target wash paths routed by min-cost flow (no path ILP), the
// multi-target connectivity cuts as lazy rows of one search per routing
// pass, cut off at the simple-path heuristic's length, which answers when
// the search finds nothing, and no root cuts (one simplex method, dual
// devex pricing, row-wise pivot rows).
INSTANTIATE_TEST_SUITE_P(
    TableII, PivotPin,
    ::testing::Values(
        Pin{BenchmarkId::Pcr, 6, 65, 930, 796, 23, 65, 59, 0, 5, 168.0,
            87.900000000000006, 12016904196682864729ull},
        Pin{BenchmarkId::Ivd, 11, 129, 1363, 958, 28, 129, 118, 50, 22,
            699.0, 239.10000000000002, 2455960844974814816ull},
        Pin{BenchmarkId::KinaseAct1, 8, 61, 619, 469, 19, 61, 53, 0, 11,
            312.0, 137.80000000000001, 6601117190502237012ull}),
    [](const ::testing::TestParamInfo<Pin>& info) {
      std::string name = assay::toString(info.param.id);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace pdw
