// End-to-end properties of PDW and DAWO on every benchmark:
//  * the washed schedules pass all validator invariants,
//  * re-analyzing the washed schedule finds no remaining wash target
//    (contamination safety — the central correctness property),
//  * PDW never uses more wash operations than DAWO and never finishes later
//    (the dominance the paper's Table II shows on every row).
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "assay/benchmarks.h"
#include "baseline/dawo.h"
#include "core/pipeline.h"
#include "obs/metric_names.h"
#include "sim/metrics.h"
#include "sim/validator.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "wash/contamination.h"

namespace pdw {
namespace {

using assay::Benchmark;
using assay::BenchmarkId;

struct EndToEnd {
  Benchmark benchmark;
  synth::SynthResult synth;
};

EndToEnd makeBase(BenchmarkId id) {
  EndToEnd e{assay::makeBenchmark(id), {}};
  e.synth =
      synth::synthesizeOnChip(*e.benchmark.graph,
                              synth::placeChip(e.benchmark.library));
  return e;
}

/// No wash target may remain after the plan is applied.
int remainingTargets(const assay::AssaySchedule& washed) {
  const wash::ContaminationTracker tracker(washed);
  return static_cast<int>(analyzeWashNecessity(tracker).targets.size());
}

/// One PDW run through the Pipeline facade (the supported entry point).
wash::WashPlanResult runPdw(const assay::AssaySchedule& base,
                            core::PdwOptions options = {}) {
  return std::move(Pipeline(std::move(options)).run(base).plan);
}

sim::ValidatorOptions looseTol() {
  sim::ValidatorOptions v;
  v.time_tol = 1e-4;  // ILP times carry big-M-scaled float noise
  return v;
}

class EndToEndTest : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(EndToEndTest, PdwScheduleIsValidAndClean) {
  EndToEnd e = makeBase(GetParam());
  core::PdwOptions options;
  options.solver.schedule.time_limit_seconds = 6.0;
  const wash::WashPlanResult pdw = runPdw(e.synth.schedule, options);

  const sim::ValidationResult v =
      sim::validateSchedule(pdw.schedule, looseTol());
  EXPECT_TRUE(v.ok()) << e.benchmark.name << ": " << v.summary();
  EXPECT_EQ(remainingTargets(pdw.schedule), 0) << e.benchmark.name;
  EXPECT_GT(pdw.schedule.washCount(), 0) << e.benchmark.name;
}

TEST_P(EndToEndTest, DawoScheduleIsValidAndClean) {
  EndToEnd e = makeBase(GetParam());
  const wash::WashPlanResult dawo = baseline::runDawo(e.synth.schedule);

  const sim::ValidationResult v =
      sim::validateSchedule(dawo.schedule, looseTol());
  EXPECT_TRUE(v.ok()) << e.benchmark.name << ": " << v.summary();
  EXPECT_EQ(remainingTargets(dawo.schedule), 0) << e.benchmark.name;
  EXPECT_GT(dawo.schedule.washCount(), 0) << e.benchmark.name;
}

TEST_P(EndToEndTest, PdwDominatesDawo) {
  EndToEnd e = makeBase(GetParam());
  core::PdwOptions options;
  options.solver.schedule.time_limit_seconds = 6.0;
  const wash::WashPlanResult pdw = runPdw(e.synth.schedule, options);
  const wash::WashPlanResult dawo = baseline::runDawo(e.synth.schedule);

  const sim::WashMetrics mp = sim::computeMetrics(pdw.schedule,
                                                  e.synth.schedule);
  const sim::WashMetrics md = sim::computeMetrics(dawo.schedule,
                                                  e.synth.schedule);

  EXPECT_LE(mp.n_wash, md.n_wash) << e.benchmark.name;
  EXPECT_LE(mp.t_assay, md.t_assay + 1e-6) << e.benchmark.name;
  EXPECT_LE(mp.t_delay, md.t_delay + 1e-6) << e.benchmark.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EndToEndTest, ::testing::ValuesIn(assay::allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkId>& info) {
      std::string name = assay::toString(info.param);
      for (char& c : name)
        if (c == ' ' || c == '-') c = '_';
      return name;
    });

TEST(EndToEnd, PdwReportsNecessityStats) {
  EndToEnd e = makeBase(BenchmarkId::Pcr);
  const wash::WashPlanResult pdw = runPdw(e.synth.schedule);
  EXPECT_GT(pdw.necessity.contaminated_cell_states, 0);
  EXPECT_GT(pdw.necessity.targets, 0);
  // Necessity analysis must drop something on PCR (the paper's own example
  // has Type-1, Type-2 and Type-3 cases).
  EXPECT_GT(pdw.necessity.skipped_type1 + pdw.necessity.skipped_type2 +
                pdw.necessity.skipped_type3,
            0);
}

TEST(EndToEnd, DawoSkipsFewerThanPdw) {
  EndToEnd e = makeBase(BenchmarkId::Ivd);
  const wash::WashPlanResult pdw = runPdw(e.synth.schedule);
  const wash::WashPlanResult dawo = baseline::runDawo(e.synth.schedule);
  // DAWO has no Type-3 (waste-flow) analysis: it must emit at least as
  // many targets as PDW and never skip a Type-3 case.
  EXPECT_GE(dawo.necessity.targets, pdw.necessity.targets);
  EXPECT_EQ(dawo.necessity.skipped_type3, 0);
}

TEST(EndToEnd, MotivatingExampleSmallDelay) {
  // Paper Fig. 3: on the motivating chip the optimized wash scheme adds
  // only a small delay (1 s in the paper). Assert the shape: PDW's delay is
  // a small fraction of the base completion time and below DAWO's.
  const Benchmark b = assay::makeBenchmark(BenchmarkId::Pcr);
  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, assay::makeMotivatingChip());

  const wash::WashPlanResult pdw = runPdw(base.schedule);
  const wash::WashPlanResult dawo = baseline::runDawo(base.schedule);
  const sim::WashMetrics mp = sim::computeMetrics(pdw.schedule, base.schedule);
  const sim::WashMetrics md = sim::computeMetrics(dawo.schedule,
                                                  base.schedule);
  EXPECT_LE(mp.t_delay, md.t_delay + 1e-6);
  EXPECT_LE(mp.t_delay, base.schedule.completionTime() * 0.5)
      << "PDW delay should stay a small fraction of the assay time";
  EXPECT_EQ(remainingTargets(pdw.schedule), 0);
}

TEST(EndToEnd, WalledInTargetRunsHeuristicOnce) {
  // Avoid the non-target cells around one 4-connected group of wash
  // targets: the operations covering that group are unroutable, and no
  // target is itself avoided. Each routed operation runs the BFS heuristic
  // exactly once in both routing modes (alone, or as the path ILP's
  // fallback); a failed heuristic is not repeated as a last resort.
  const EndToEnd e = makeBase(BenchmarkId::Pcr);
  const assay::AssaySchedule& base = e.synth.schedule;
  const arch::ChipLayout& chip = base.chip();
  const wash::ContaminationTracker tracker(base);
  std::set<arch::Cell> targets;
  for (const wash::WashTarget& t : analyzeWashNecessity(tracker).targets)
    targets.insert(t.cell);
  ASSERT_FALSE(targets.empty());
  std::vector<arch::Cell> group{*targets.begin()};
  std::set<arch::Cell> in_group(group.begin(), group.end());
  std::set<arch::Cell> wall;
  for (std::size_t i = 0; i < group.size(); ++i)
    for (const arch::Cell& n : chip.neighbors(group[i])) {
      if (!targets.count(n)) {
        wall.insert(n);
      } else if (in_group.insert(n).second) {
        group.push_back(n);
      }
    }

  for (const bool ilp_paths : {false, true}) {
    core::PdwOptions options =
        core::PdwOptions{}.withThreads(1).withoutIlpSchedule();
    options.use_ilp_paths = ilp_paths;
    options.path.avoid_cells.assign(wall.begin(), wall.end());
    const PdwResult r = Pipeline(options).run(base);
    EXPECT_GT(r.unroutable_operations, 0) << "ilp_paths " << ilp_paths;
    EXPECT_EQ(r.metrics.counter(obs::names::kPathBfsRoutes),
              r.metrics.counter(obs::names::kRouteCacheMisses))
        << "ilp_paths " << ilp_paths;
  }
}

TEST(PipelineOptions, SolverBudgetsRunAsSet) {
  // Each stage's default budget comes from the stage itself.
  const core::SolverConfig defaults;
  EXPECT_EQ(defaults.schedule.time_limit_seconds,
            core::ScheduleIlpOptions{}.solver.time_limit_seconds);
  EXPECT_EQ(defaults.schedule.node_limit,
            core::ScheduleIlpOptions{}.solver.node_limit);
  EXPECT_EQ(defaults.path.time_limit_seconds,
            core::WashPathOptions{}.solver.time_limit_seconds);
  EXPECT_EQ(defaults.path.node_limit,
            core::WashPathOptions{}.solver.node_limit);
  EXPECT_EQ(defaults.schedule.time_limit_seconds, 8.0);
  EXPECT_EQ(defaults.schedule.node_limit, 60000);

  // A budget written straight into the fields is the budget the Pipeline
  // runs with, also where it equals ilp::SolveParams' own defaults.
  core::PdwOptions options = core::PdwOptions{}.withThreads(1);
  options.solver.schedule.time_limit_seconds = 10.0;
  options.solver.schedule.node_limit = 200000;
  const Pipeline pipeline(options);
  EXPECT_EQ(pipeline.options().solver.schedule.time_limit_seconds, 10.0);
  EXPECT_EQ(pipeline.options().solver.schedule.node_limit, 200000);
}

TEST(EndToEnd, NoContaminationMeansNoWash) {
  // A single-op assay leaves residue but never reuses anything.
  assay::SequencingGraph g("single");
  const auto r = g.fluids().addReagent("r");
  g.addOperation(assay::OpKind::Mix, 3, {r});
  synth::SynthResult base = synth::synthesize(g);
  const wash::WashPlanResult pdw = runPdw(base.schedule);
  EXPECT_EQ(pdw.schedule.washCount(), 0);
  EXPECT_TRUE(pdw.proven_optimal);
  EXPECT_DOUBLE_EQ(pdw.schedule.completionTime(),
                   base.schedule.completionTime());
}

}  // namespace
}  // namespace pdw
