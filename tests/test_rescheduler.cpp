// Greedy rescheduler (wash insertion engine shared by DAWO's sweep-line,
// PDW's fallback and applyDelta's re-timing): precedence preservation, wash
// windows, cascading delays, release times.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/validator.h"
#include "wash/rescheduler.h"

namespace pdw::wash {
namespace {

using arch::Cell;

class ReschedulerFixture : public ::testing::Test {
 protected:
  ReschedulerFixture() : chip_(9, 3, 3.0), graph_("resched") {
    chip_.addFlowPort({0, 1}, "in");
    mixer_ = chip_.addDevice(arch::DeviceKind::Mixer, {4, 1}, "mixer");
    chip_.addWastePort({8, 1}, "out");
    r1_ = graph_.fluids().addReagent("r1");
    r2_ = graph_.fluids().addReagent("r2");
  }

  arch::FlowPath corridor() {
    std::vector<Cell> cells;
    for (int x = 0; x <= 8; ++x) cells.push_back({x, 1});
    return arch::FlowPath(cells);
  }

  /// Base: inject r1 (0..2), op (2..5), inject r2 for op2 (5..7), op2
  /// (7..10). Both injections share the corridor.
  assay::AssaySchedule makeBase() {
    assay::AssaySchedule s(&graph_, &chip_);
    // Two independent ops serialized by sharing the mixer (no dependency
    // edge: the fixture carries no producer-result transport).
    op1_ = graph_.addOperation(assay::OpKind::Mix, 3.0, {r1_});
    op2_ = graph_.addOperation(assay::OpKind::Mix, 3.0, {r2_});

    assay::FluidTask t1;
    t1.kind = assay::TaskKind::Transport;
    t1.fluid = r1_;
    t1.consumer = op1_;
    t1.path = corridor();
    t1.payload_begin = 0;
    t1.payload_end = 4;
    t1.start = 0;
    t1.end = 2;
    t1_ = s.addTask(t1);

    assay::FluidTask t2 = t1;
    t2.fluid = r2_;
    t2.consumer = op2_;
    t2.start = 5;
    t2.end = 7;
    t2_ = s.addTask(t2);

    s.addOpSchedule({op1_, mixer_, 2.0, 5.0});
    s.addOpSchedule({op2_, mixer_, 7.0, 10.0});
    return s;
  }

  WashOperation makeWash(double ready, assay::TaskId contaminator,
                         assay::TaskId blocker) {
    WashOperation w;
    WashTarget target;
    target.cell = {2, 1};
    target.residue = r1_;
    target.ready = ready;
    target.deadline = 5.0;
    target.contaminating_task = contaminator;
    target.blocking_task = blocker;
    w.targets = {target};
    w.path = corridor();
    w.refreshWindow();
    return w;
  }

  arch::ChipLayout chip_;
  assay::SequencingGraph graph_;
  arch::DeviceId mixer_ = -1;
  assay::FluidId r1_ = -1, r2_ = -1;
  assay::OpId op1_ = -1, op2_ = -1;
  assay::TaskId t1_ = -1, t2_ = -1;
};

TEST_F(ReschedulerFixture, NoWashesReproducesBase) {
  const auto base = makeBase();
  const auto out = rescheduleWithWashes(base, {}, {});
  EXPECT_DOUBLE_EQ(out.completionTime(), base.completionTime());
  for (const assay::FluidTask& t : out.tasks())
    EXPECT_DOUBLE_EQ(t.start, base.task(t.id).start);
}

TEST_F(ReschedulerFixture, ReleaseTimeShiftsEverythingThatSharesItsCells) {
  // t1 released 1 s late: op1 waits for its input, t2 (same corridor,
  // crossing the mixer) waits for op1, and op2 for t2.
  const auto base = makeBase();
  ReleaseTimes release;
  release.op = {2.0, 7.0};
  release.task = {1.0, 5.0};
  const auto out = rescheduleWithWashes(base, {}, {}, release);
  EXPECT_DOUBLE_EQ(out.task(t1_).start, 1.0);
  EXPECT_DOUBLE_EQ(out.opSchedule(op1_).start, 3.0);
  EXPECT_DOUBLE_EQ(out.task(t2_).start, 6.0);
  EXPECT_DOUBLE_EQ(out.opSchedule(op2_).start, 8.0);
  const auto v = sim::validateSchedule(out);
  EXPECT_TRUE(v.ok()) << v.summary();
}

TEST_F(ReschedulerFixture, WashInsertedBetweenContaminatorAndBlocker) {
  const auto base = makeBase();
  const auto out =
      rescheduleWithWashes(base, {makeWash(2.0, t1_, t2_)}, {});
  // One wash task appended.
  ASSERT_EQ(out.washCount(), 1);
  const assay::FluidTask& wash = out.task(2);
  EXPECT_EQ(wash.kind, assay::TaskKind::Wash);
  // Wash after contaminating task, blocker after wash.
  EXPECT_GE(wash.start, out.task(t1_).end - 1e-9);
  EXPECT_GE(out.task(t2_).start, wash.end - 1e-9);
  // Result is structurally valid.
  const auto v = sim::validateSchedule(out);
  EXPECT_TRUE(v.ok()) << v.summary();
}

TEST_F(ReschedulerFixture, BlockedTaskCascadesIntoItsConsumer) {
  const auto base = makeBase();
  const auto out =
      rescheduleWithWashes(base, {makeWash(2.0, t1_, t2_)}, {});
  // op2 starts only after its (pushed) injection completes.
  EXPECT_GE(out.opSchedule(op2_).start, out.task(t2_).end - 1e-9);
  // And the whole schedule got longer than the base.
  EXPECT_GT(out.completionTime(), base.completionTime() - 1e-9);
}

TEST_F(ReschedulerFixture, WashDurationFollowsParams) {
  const auto base = makeBase();
  WashParams params;
  params.flow_velocity_mm_s = 12.0;
  params.dissolution_s = 1.5;
  const auto out =
      rescheduleWithWashes(base, {makeWash(2.0, t1_, t2_)}, params);
  const assay::FluidTask& wash = out.task(2);
  // 8 edges * 3mm = 24mm; 24/12 + 1.5 = 3.5 s.
  EXPECT_NEAR(wash.duration(), 3.5, 1e-9);
}

TEST_F(ReschedulerFixture, TiedOrderKeysGiveByteIdenticalPlans) {
  // Several washes sharing one blocker get the same order_key, so the
  // sweep's total order rests entirely on the (kind, index) tie-break:
  // repeated calls must describe() byte-equal.
  const auto base = makeBase();
  std::vector<WashOperation> washes;
  for (int i = 0; i < 4; ++i) washes.push_back(makeWash(2.0, t1_, t2_));
  const std::string first =
      rescheduleWithWashes(base, washes, {}).describe();
  for (int round = 0; round < 3; ++round)
    EXPECT_EQ(rescheduleWithWashes(base, washes, {}).describe(), first);
}

TEST_F(ReschedulerFixture, TwoWashesSerializeOnSharedPath) {
  const auto base = makeBase();
  const auto w1 = makeWash(2.0, t1_, t2_);
  WashOperation w2 = makeWash(2.0, t1_, t2_);
  const auto out = rescheduleWithWashes(base, {w1, w2}, {});
  const assay::FluidTask& a = out.task(2);
  const assay::FluidTask& b = out.task(3);
  EXPECT_TRUE(a.end <= b.start + 1e-9 || b.end <= a.start + 1e-9);
}

}  // namespace
}  // namespace pdw::wash
