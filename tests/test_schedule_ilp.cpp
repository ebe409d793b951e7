// Scheduling ILP (paper eqs. 1-8, 16-26): windows, integration, fallback
// parity with the greedy rescheduler, and improvement over greedy.
#include <gtest/gtest.h>

#include "core/schedule_ilp.h"
#include "sim/validator.h"
#include "wash/rescheduler.h"

namespace pdw::core {
namespace {

using arch::Cell;

class ScheduleIlpFixture : public ::testing::Test {
 protected:
  ScheduleIlpFixture() : chip_(9, 5, 3.0), graph_("ilp") {
    chip_.addFlowPort({0, 1}, "in1");
    chip_.addFlowPort({0, 3}, "in2");
    mixer_ = chip_.addDevice(arch::DeviceKind::Mixer, {4, 1}, "mixer");
    chip_.addWastePort({8, 1}, "out1");
    chip_.addWastePort({8, 3}, "out2");
    r1_ = graph_.fluids().addReagent("r1");
    r2_ = graph_.fluids().addReagent("r2");
  }

  arch::FlowPath row(int y) {
    std::vector<Cell> cells;
    for (int x = 0; x <= 8; ++x) cells.push_back({x, y});
    return arch::FlowPath(cells);
  }

  /// Base schedule: two sequential ops on the mixer fed over the shared
  /// row-1 corridor; the second injection needs the corridor washed.
  assay::AssaySchedule makeBase() {
    assay::AssaySchedule s(&graph_, &chip_);
    // Two independent ops serialized by sharing the mixer (no dependency
    // edge: the fixture carries no producer-result transport).
    op1_ = graph_.addOperation(assay::OpKind::Mix, 3.0, {r1_});
    op2_ = graph_.addOperation(assay::OpKind::Mix, 3.0, {r2_});

    assay::FluidTask inject1;
    inject1.kind = assay::TaskKind::Transport;
    inject1.fluid = r1_;
    inject1.consumer = op1_;
    inject1.path = row(1);
    inject1.payload_begin = 0;
    inject1.payload_end = 4;
    inject1.start = 0;
    inject1.end = 2;
    t1_ = s.addTask(inject1);

    assay::FluidTask removal;
    removal.kind = assay::TaskKind::ExcessRemoval;
    removal.fluid = r1_;
    removal.producer = -1;
    removal.consumer = op1_;
    removal.path = row(1);
    removal.payload_begin = 3;
    removal.payload_end = -1;
    removal.start = 2;
    removal.end = 4;
    removal_ = s.addTask(removal);

    assay::FluidTask inject2 = inject1;
    inject2.fluid = r2_;
    inject2.consumer = op2_;
    inject2.start = 8;
    inject2.end = 10;
    t2_ = s.addTask(inject2);

    s.addOpSchedule({op1_, mixer_, 4.0, 7.0});
    s.addOpSchedule({op2_, mixer_, 10.0, 13.0});
    return s;
  }

  wash::WashOperation corridorWash() {
    wash::WashOperation w;
    wash::WashTarget target;
    target.cell = {2, 1};
    target.residue = r1_;
    target.ready = 4.0;  // after the removal spread residue
    target.deadline = 8.0;
    target.contaminating_task = removal_;
    target.blocking_task = t2_;
    w.targets = {target};
    w.path = row(1);
    w.refreshWindow();
    return w;
  }

  arch::ChipLayout chip_;
  assay::SequencingGraph graph_;
  arch::DeviceId mixer_ = -1;
  assay::FluidId r1_ = -1, r2_ = -1;
  assay::OpId op1_ = -1, op2_ = -1;
  assay::TaskId t1_ = -1, t2_ = -1, removal_ = -1;
};

TEST_F(ScheduleIlpFixture, SolvesAndRespectsWashWindow) {
  const auto base = makeBase();
  ScheduleIlpOptions options;
  options.solver.time_limit_seconds = 4.0;
  const ScheduleIlpResult r =
      solveWashSchedule(base, {corridorWash()}, options);
  ASSERT_TRUE(r.success);

  const assay::FluidTask* wash = nullptr;
  for (const assay::FluidTask& t : r.schedule.tasks())
    if (t.kind == assay::TaskKind::Wash) wash = &t;
  ASSERT_NE(wash, nullptr);
  // eq. 16: after the contaminating removal, before the blocked injection.
  EXPECT_GE(wash->start, r.schedule.task(removal_).end - 1e-5);
  EXPECT_LE(wash->end, r.schedule.task(t2_).start + 1e-5);

  sim::ValidatorOptions tol;
  tol.time_tol = 1e-4;
  const auto v = sim::validateSchedule(r.schedule, tol);
  EXPECT_TRUE(v.ok()) << v.summary();
}

TEST_F(ScheduleIlpFixture, IntegrationAbsorbsCoveredRemoval) {
  const auto base = makeBase();
  ScheduleIlpOptions options;
  options.solver.time_limit_seconds = 4.0;
  const ScheduleIlpResult r =
      solveWashSchedule(base, {corridorWash()}, options);
  ASSERT_TRUE(r.success);
  // The wash path (row 1) covers the removal payload, and the wash fits
  // inside the removal's service window -> psi should fire.
  EXPECT_EQ(r.integrated_removals, 1);
  EXPECT_NEAR(r.schedule.task(removal_).duration(), 0.0, 1e-6);
  EXPECT_GT(r.num_psi_vars, 0);
}

TEST_F(ScheduleIlpFixture, IntegrationDisabledKeepsRemoval) {
  const auto base = makeBase();
  ScheduleIlpOptions options;
  options.enable_integration = false;
  options.solver.time_limit_seconds = 4.0;
  const ScheduleIlpResult r =
      solveWashSchedule(base, {corridorWash()}, options);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.integrated_removals, 0);
  EXPECT_NEAR(r.schedule.task(removal_).duration(), 2.0, 1e-5);
  EXPECT_EQ(r.num_psi_vars, 0);
}

TEST_F(ScheduleIlpFixture, NeverWorseThanGreedy) {
  const auto base = makeBase();
  const auto washes = std::vector<wash::WashOperation>{corridorWash()};
  ScheduleIlpOptions options;
  options.solver.time_limit_seconds = 4.0;
  const ScheduleIlpResult r = solveWashSchedule(base, washes, options);
  ASSERT_TRUE(r.success);
  const auto greedy = wash::rescheduleWithWashes(base, washes, options.wash);
  EXPECT_LE(r.schedule.completionTime(),
            greedy.completionTime() + 1e-6);
}

TEST_F(ScheduleIlpFixture, EmptyWashListKeepsCompletionTime) {
  const auto base = makeBase();
  const ScheduleIlpResult r = solveWashSchedule(base, {}, {});
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.schedule.completionTime(), base.completionTime() + 1e-6);
  const auto v = sim::validateSchedule(r.schedule);
  EXPECT_TRUE(v.ok()) << v.summary();
}

TEST_F(ScheduleIlpFixture, ColdStatsCountBothPhases) {
  // Node caps and a wall limit that never binds: phase A runs the same
  // search in cold and repair mode, and the cold solve adds the order
  // search's pinned re-solves (one per improving order) on top, so every
  // work counter of the cold solve is at least the repair solve's, and
  // equal when no order improved.
  const auto base = makeBase();
  const std::vector<wash::WashOperation> washes{corridorWash()};
  ScheduleIlpOptions options;
  options.solver.time_limit_seconds = 1e6;
  options.solver.node_limit = 200;
  const ScheduleIlpResult cold = solveWashSchedule(base, washes, options);
  options.repair_mode = true;
  const ScheduleIlpResult phase_a = solveWashSchedule(base, washes, options);
  ASSERT_TRUE(cold.success);
  ASSERT_TRUE(phase_a.success);
  EXPECT_EQ(cold.order_stop, OrderSearchStop::LocalOptimum);
  EXPECT_EQ(phase_a.order_stop, OrderSearchStop::NotRun);
  EXPECT_GE(cold.stats.lp_solves, phase_a.stats.lp_solves);
  EXPECT_GE(cold.stats.simplex_iterations, phase_a.stats.simplex_iterations);
  EXPECT_GE(cold.stats.refactorizations, phase_a.stats.refactorizations);
  EXPECT_GE(phase_a.stats.lp_solves, 1);
  if (cold.order_flips == 0) {
    EXPECT_EQ(cold.stats.lp_solves, phase_a.stats.lp_solves);
    EXPECT_EQ(cold.stats.refactorizations, phase_a.stats.refactorizations);
  }
}

TEST_F(ScheduleIlpFixture, ReportsModelSizeBookkeeping) {
  const auto base = makeBase();
  const ScheduleIlpResult r =
      solveWashSchedule(base, {corridorWash()}, {});
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.num_order_binaries + r.num_fixed_orders, 1);
  // Phase A's LP: its all-slack start is already optimal on this model, so
  // the solve is reported by its LP count, not its pivots.
  EXPECT_GE(r.stats.lp_solves, 1);
}

}  // namespace
}  // namespace pdw::core
