// Online re-wash (DESIGN.md §15): ScheduleDelta application and
// Pipeline::resolve() end to end.
//
// Suites:
//   ScheduleDeltaApply    applyDelta validation + shift propagation (every
//                         rejected delta names its reason; a delay moves
//                         only forward; a removal keeps ids dense)
//   ResolveVsCold         resolve(delta) vs a cold run() of the same
//                         applyDelta schedule, for each delta kind:
//                         identical necessity, wash routes, N_wash, L_wash
//   PipelineResolve       deltas compose, blocked cells are excluded from
//                         wash routes, invalid deltas leave the resident
//                         state usable
//
// Budgets are node/iteration-bound (never wall-clock) so the cold-vs-warm
// comparisons are deterministic under sanitizers and load.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "core/schedule_delta.h"
#include "sim/metrics.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "wash/contamination.h"
#include "wash/necessity.h"

namespace {

using namespace pdw;
using assay::BenchmarkId;
using assay::TaskKind;
using core::ScheduleDelta;

/// Benchmark bundle whose graph outlives the schedule (Pipeline::resolve
/// keeps a copy of the schedule, which points into the graph and chip).
struct BaseBundle {
  assay::Benchmark benchmark;
  synth::SynthResult synth;
};

BaseBundle makeBundle(BenchmarkId id) {
  BaseBundle bundle;
  bundle.benchmark = assay::makeBenchmark(id);
  bundle.synth = synth::synthesizeOnChip(
      *bundle.benchmark.graph, synth::placeChip(bundle.benchmark.library));
  return bundle;
}

/// Node-bound deterministic options (mirrors test_parallel_determinism).
core::PdwOptions fastOptions() {
  core::PdwOptions options = core::PdwOptions{}
                                 .withThreads(1)
                                 .withoutIlpPaths()
                                 .withScheduleBudget(1e6, 200);
  options.solver.schedule.simplex_iteration_limit = 1500;
  return options;
}

assay::TaskId findRemovableTask(const assay::AssaySchedule& schedule) {
  for (const assay::FluidTask& task : schedule.tasks())
    if (task.kind == TaskKind::ExcessRemoval ||
        task.kind == TaskKind::WasteRemoval)
      return task.id;
  return -1;
}

// ---- ScheduleDeltaApply --------------------------------------------------

TEST(ScheduleDeltaApply, RejectsUnknownIdsAndBadRemovals) {
  const BaseBundle bundle = makeBundle(BenchmarkId::Pcr);
  const assay::AssaySchedule& base = bundle.synth.schedule;

  ScheduleDelta unknown_op;
  unknown_op.op_delays.push_back({9999, 5.0});
  EXPECT_FALSE(core::applyDelta(base, unknown_op).valid);
  EXPECT_NE(core::applyDelta(base, unknown_op).error.find("unknown"),
            std::string::npos);

  ScheduleDelta unknown_task;
  unknown_task.task_delays.push_back({9999, 5.0});
  EXPECT_FALSE(core::applyDelta(base, unknown_task).valid);

  // Transports cannot be removed (their consumer would starve).
  assay::TaskId transport = -1;
  for (const assay::FluidTask& task : base.tasks())
    if (task.kind == TaskKind::Transport) transport = task.id;
  ASSERT_GE(transport, 0);
  ScheduleDelta remove_transport;
  remove_transport.removed_tasks.push_back(transport);
  const core::AppliedDelta applied = core::applyDelta(base, remove_transport);
  EXPECT_FALSE(applied.valid);
  EXPECT_NE(applied.error.find("waste-bound"), std::string::npos);

  ScheduleDelta outside;
  outside.blocked_cells.push_back({10000, 10000});
  EXPECT_FALSE(core::applyDelta(base, outside).valid);

  const assay::TaskId removable = findRemovableTask(base);
  ASSERT_GE(removable, 0);
  ScheduleDelta both;
  both.task_delays.push_back({removable, 2.0});
  both.removed_tasks.push_back(removable);
  EXPECT_FALSE(core::applyDelta(base, both).valid);
}

TEST(ScheduleDeltaApply, DelayPropagatesOnlyForward) {
  const BaseBundle bundle = makeBundle(BenchmarkId::Pcr);
  const assay::AssaySchedule& base = bundle.synth.schedule;
  const std::vector<assay::OpSchedule>& ops = base.opSchedules();
  const assay::OpSchedule& delayed = ops[ops.size() / 2];
  const double delay = 7.5;

  ScheduleDelta delta;
  delta.op_delays.push_back({delayed.op, delay});
  const core::AppliedDelta applied = core::applyDelta(base, delta);
  ASSERT_TRUE(applied.valid) << applied.error;
  ASSERT_EQ(applied.schedule.opSchedules().size(), ops.size());
  ASSERT_EQ(applied.schedule.tasks().size(), base.tasks().size());

  // The delayed op starts exactly `delay` later; nothing moves backwards,
  // durations are kept, and everything that started before the delayed op
  // (no successor of it can) keeps its base start.
  int earlier = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const assay::OpSchedule& b = ops[i];
    const assay::OpSchedule& p = applied.schedule.opSchedules()[i];
    ASSERT_EQ(b.op, p.op);
    if (b.op == delayed.op) {
      EXPECT_DOUBLE_EQ(p.start, b.start + delay);
    }
    EXPECT_GE(p.start, b.start);
    EXPECT_DOUBLE_EQ(p.end - p.start, b.end - b.start);
    if (b.start < delayed.start) {
      EXPECT_EQ(p.start, b.start);
      ++earlier;
    }
  }
  for (std::size_t i = 0; i < base.tasks().size(); ++i) {
    const assay::FluidTask& b = base.tasks()[i];
    const assay::FluidTask& p = applied.schedule.tasks()[i];
    EXPECT_EQ(p.id, b.id);
    EXPECT_GE(p.start, b.start);
    EXPECT_DOUBLE_EQ(p.end - p.start, b.end - b.start);
    if (b.start < delayed.start) {
      EXPECT_EQ(p.start, b.start);
      ++earlier;
    }
  }
  EXPECT_GT(earlier, 0) << "no item precedes the delayed op";
}

TEST(ScheduleDeltaApply, RemovalRenumbersAndRemaps) {
  const BaseBundle bundle = makeBundle(BenchmarkId::Pcr);
  const assay::AssaySchedule& base = bundle.synth.schedule;
  const assay::TaskId removable = findRemovableTask(base);
  ASSERT_GE(removable, 0);
  ASSERT_LT(removable, static_cast<assay::TaskId>(base.tasks().size()) - 1)
      << "the removal must renumber a tail";

  ScheduleDelta delta;
  delta.removed_tasks.push_back(removable);
  const core::AppliedDelta applied = core::applyDelta(base, delta);
  ASSERT_TRUE(applied.valid) << applied.error;
  const std::vector<assay::FluidTask>& survivors = applied.schedule.tasks();
  ASSERT_EQ(survivors.size(), base.tasks().size() - 1);

  // Survivors keep their base order with dense ids: base task t lands at
  // t, or t - 1 past the removed one. Each keeps its kind, times and path,
  // and its matching transport is the same transport under its new id.
  const auto newId = [&](assay::TaskId t) {
    return t < removable ? t : t - 1;
  };
  int remapped = 0;
  for (const assay::FluidTask& b : base.tasks()) {
    if (b.id == removable) continue;
    const assay::FluidTask& p =
        survivors[static_cast<std::size_t>(newId(b.id))];
    EXPECT_EQ(p.id, newId(b.id));
    EXPECT_EQ(p.kind, b.kind);
    EXPECT_EQ(p.start, b.start);
    EXPECT_EQ(p.end, b.end);
    EXPECT_EQ(p.path.cells(), b.path.cells());
    if (b.matching_transport < 0) {
      EXPECT_LT(p.matching_transport, 0);
      continue;
    }
    ASSERT_NE(b.matching_transport, removable);
    EXPECT_EQ(p.matching_transport, newId(b.matching_transport));
    if (p.matching_transport != b.matching_transport) ++remapped;
  }
  EXPECT_GT(remapped, 0) << "no matching_transport was renumbered";
}

// ---- PipelineResolve -----------------------------------------------------

TEST(PipelineResolve, RequiresPriorRun) {
  Pipeline pipeline(fastOptions());
  EXPECT_FALSE(pipeline.canResolve());
  ScheduleDelta delta;
  delta.op_delays.push_back({0, 1.0});
  const PdwResult r = pipeline.resolve(delta);
  EXPECT_TRUE(r.resolve.attempted);
  EXPECT_FALSE(r.resolve.valid);
  EXPECT_FALSE(r.resolve.error.empty());
}

/// Cells a blocked-cell delta can take without blocking a wash target:
/// cells on `plan`'s wash routes that `base` never uses.
std::vector<arch::Cell> transitCells(const assay::AssaySchedule& base,
                                     const assay::AssaySchedule& plan) {
  std::set<arch::Cell> used;
  for (const arch::Cell& cell : wash::ContaminationTracker(base).usedCells())
    used.insert(cell);
  std::vector<arch::Cell> cells;
  for (const assay::FluidTask& task : plan.tasks()) {
    if (task.kind != TaskKind::Wash) continue;
    for (const arch::Cell& c : task.path.cells())
      if (!used.count(c)) cells.push_back(c);
  }
  return cells;
}

std::vector<std::vector<arch::Cell>> washRoutes(
    const assay::AssaySchedule& plan) {
  std::vector<std::vector<arch::Cell>> routes;
  for (const assay::FluidTask& task : plan.tasks())
    if (task.kind == TaskKind::Wash) routes.push_back(task.path.cells());
  return routes;
}

class ResolveVsCold : public ::testing::TestWithParam<BenchmarkId> {
 protected:
  void SetUp() override {
    bundle_ = makeBundle(GetParam());
    warm_ = std::make_unique<Pipeline>(fastOptions());
    first_ = warm_->run(base());
    ASSERT_TRUE(warm_->canResolve());
  }

  const assay::AssaySchedule& base() const { return bundle_.synth.schedule; }

  /// resolve(delta) on the primed pipeline against a cold run() of the
  /// same applyDelta schedule, told to avoid the delta's blocked cells:
  /// the same wash targets, operations and routes, so the same N_wash and
  /// L_wash (only the phase-A-only re-timing may differ).
  PdwResult expectMatchesCold(const ScheduleDelta& delta) {
    const core::AppliedDelta applied = core::applyDelta(base(), delta);
    EXPECT_TRUE(applied.valid) << applied.error;
    const PdwResult incremental = warm_->resolve(delta);
    EXPECT_TRUE(incremental.resolve.valid) << incremental.resolve.error;

    core::PdwOptions cold_options = fastOptions();
    cold_options.path.avoid_cells = delta.blocked_cells;
    const PdwResult scratch = Pipeline(cold_options).run(applied.schedule);

    EXPECT_EQ(incremental.plan.necessity.describe(),
              scratch.plan.necessity.describe());
    EXPECT_EQ(incremental.wash_operations, scratch.wash_operations);
    EXPECT_EQ(incremental.unroutable_operations,
              scratch.unroutable_operations);
    EXPECT_EQ(washRoutes(incremental.schedule()),
              washRoutes(scratch.schedule()));
    const sim::WashMetrics mi =
        sim::computeMetrics(incremental.schedule(), base());
    const sim::WashMetrics mc = sim::computeMetrics(scratch.schedule(), base());
    EXPECT_EQ(mi.n_wash, mc.n_wash);
    EXPECT_DOUBLE_EQ(mi.l_wash_mm, mc.l_wash_mm);
    return incremental;
  }

  BaseBundle bundle_;
  std::unique_ptr<Pipeline> warm_;
  PdwResult first_;
};

TEST_P(ResolveVsCold, DelayDeltaMatchesColdResolve) {
  ScheduleDelta delta;
  delta.op_delays.push_back({base().opSchedules().front().op, 6.0});
  const PdwResult incremental = expectMatchesCold(delta);
  EXPECT_EQ(first_.wash_operations > 0, incremental.cache.hits > 0)
      << "unchanged wash routes should be served by the warm route cache";
}

TEST_P(ResolveVsCold, TaskDelayDeltaMatchesColdResolve) {
  ScheduleDelta delta;
  delta.task_delays.push_back(
      {static_cast<assay::TaskId>(base().tasks().size() / 2), 4.0});
  expectMatchesCold(delta);
}

TEST_P(ResolveVsCold, BlockedCellDeltaMatchesColdResolve) {
  const std::vector<arch::Cell> cells =
      transitCells(base(), first_.schedule());
  if (cells.empty()) GTEST_SKIP() << "no blockable transit cell";
  ScheduleDelta delta;
  delta.blocked_cells.push_back(cells.front());
  expectMatchesCold(delta);
}

TEST_P(ResolveVsCold, RemovalDeltaMatchesColdResolve) {
  const assay::TaskId removable = findRemovableTask(base());
  ASSERT_GE(removable, 0);
  ScheduleDelta delta;
  delta.removed_tasks.push_back(removable);
  expectMatchesCold(delta);
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, ResolveVsCold,
                         ::testing::Values(BenchmarkId::Pcr, BenchmarkId::Ivd,
                                           BenchmarkId::ProteinSplit),
                         [](const ::testing::TestParamInfo<BenchmarkId>& info) {
                           std::string name = assay::toString(info.param);
                           for (char& c : name)
                             if (c == ' ' || c == '-') c = '_';
                           return name;
                         });

TEST(PipelineResolve, DeltasComposeAndInvalidDeltaLeavesStateUsable) {
  const BaseBundle bundle = makeBundle(BenchmarkId::Pcr);
  const assay::AssaySchedule& base = bundle.synth.schedule;

  Pipeline pipeline(fastOptions());
  pipeline.run(base);

  ScheduleDelta first;
  first.op_delays.push_back({base.opSchedules().front().op, 3.0});
  ASSERT_TRUE(pipeline.resolve(first).resolve.valid);

  // Invalid delta: rejected, state untouched.
  ScheduleDelta bogus;
  bogus.op_delays.push_back({424242, 1.0});
  const PdwResult rejected = pipeline.resolve(bogus);
  EXPECT_FALSE(rejected.resolve.valid);

  // A second valid delta composes on the re-based (doubly-perturbed)
  // schedule: the wash set matches a cold solve of base + 3s + 2s. (The
  // scheduler itself may re-time ops freely — the delta perturbs the
  // *input* schedule; it is not an output pin.)
  ScheduleDelta second;
  const assay::OpId op = base.opSchedules().front().op;
  second.op_delays.push_back({op, 2.0});
  const PdwResult composed = pipeline.resolve(second);
  ASSERT_TRUE(composed.resolve.valid) << composed.resolve.error;

  const core::AppliedDelta once = core::applyDelta(base, first);
  ASSERT_TRUE(once.valid);
  const core::AppliedDelta twice = core::applyDelta(once.schedule, second);
  ASSERT_TRUE(twice.valid);
  Pipeline cold(fastOptions());
  const PdwResult scratch = cold.run(twice.schedule);
  const sim::WashMetrics mi = sim::computeMetrics(composed.schedule(), base);
  const sim::WashMetrics mc = sim::computeMetrics(scratch.schedule(), base);
  EXPECT_EQ(mi.n_wash, mc.n_wash);
  EXPECT_DOUBLE_EQ(mi.l_wash_mm, mc.l_wash_mm);
}

TEST(PipelineResolve, BlockedCellExcludedFromWashRoutes) {
  const BaseBundle bundle = makeBundle(BenchmarkId::Ivd);
  const assay::AssaySchedule& base = bundle.synth.schedule;

  Pipeline pipeline(fastOptions());
  const PdwResult first = pipeline.run(base);

  // A wash-route transit cell the base schedule never uses: blocking it
  // cannot invalidate a wash *target*, only force a different route.
  const std::vector<arch::Cell> cells = transitCells(base, first.schedule());
  if (cells.empty()) GTEST_SKIP() << "no blockable transit cell";
  const arch::Cell blocked = cells.front();

  ScheduleDelta delta;
  delta.blocked_cells.push_back(blocked);
  const PdwResult r = pipeline.resolve(delta);
  ASSERT_TRUE(r.resolve.valid) << r.resolve.error;
  for (const assay::FluidTask& task : r.schedule().tasks()) {
    if (task.kind != TaskKind::Wash) continue;
    for (const arch::Cell& c : task.path.cells())
      EXPECT_FALSE(c == blocked)
          << "wash route crosses blocked cell " << c.x << ":" << c.y;
  }

  // Cold equivalence: a from-scratch solve told to avoid the same cell
  // produces the same wash set.
  core::PdwOptions cold_options = fastOptions();
  cold_options.path.avoid_cells.push_back(blocked);
  Pipeline cold(cold_options);
  const PdwResult scratch = cold.run(base);
  const sim::WashMetrics mi = sim::computeMetrics(r.schedule(), base);
  const sim::WashMetrics mc = sim::computeMetrics(scratch.schedule(), base);
  EXPECT_EQ(mi.n_wash, mc.n_wash);
}

TEST(PipelineResolve, BlockedTargetCellDropsItsWashNotTheProcess) {
  // Blocking a cell that itself needs washing makes that wash physically
  // impossible: the operation must be dropped as unroutable (loud log,
  // unroutable_operations count) — regression for a map::at crash when a
  // blocked target survived into the path ILP's region-excluded model.
  const BaseBundle bundle = makeBundle(BenchmarkId::Pcr);
  const assay::AssaySchedule& base = bundle.synth.schedule;

  Pipeline pipeline(fastOptions());
  const PdwResult first = pipeline.run(base);
  ASSERT_GT(first.schedule().washCount(), 0);

  // Block an actual wash-target cell, straight from necessity analysis.
  const wash::ContaminationTracker tracker(base);
  const wash::NecessityResult necessity =
      wash::analyzeWashNecessity(tracker, fastOptions().necessity);
  ASSERT_FALSE(necessity.targets.empty());
  const arch::Cell target = necessity.targets.front().cell;

  ScheduleDelta delta;
  delta.blocked_cells.push_back(target);
  const PdwResult r = pipeline.resolve(delta);
  ASSERT_TRUE(r.resolve.valid) << r.resolve.error;
  EXPECT_GT(r.unroutable_operations, 0);
  EXPECT_LT(r.schedule().washCount(), first.schedule().washCount());
  for (const assay::FluidTask& task : r.schedule().tasks()) {
    if (task.kind != TaskKind::Wash) continue;
    for (const arch::Cell& c : task.path.cells()) EXPECT_FALSE(c == target);
  }

  // Both routing modes agree on the semantics (ILP path mode too).
  core::PdwOptions ilp_options = fastOptions();
  ilp_options.use_ilp_paths = true;
  ilp_options.path.avoid_cells.push_back(target);
  const PdwResult scratch = Pipeline(ilp_options).run(base);
  EXPECT_GT(scratch.unroutable_operations, 0);
  EXPECT_EQ(scratch.schedule().washCount(), r.schedule().washCount());
}

}  // namespace
