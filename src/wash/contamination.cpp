#include "wash/contamination.h"

#include <algorithm>
#include <span>

namespace pdw::wash {

using assay::FluidTask;
using assay::TaskKind;

namespace {

bool depositsOnCritical(const assay::FluidRegistry& fluids,
                        const assay::FluidTask& dep,
                        const assay::FluidTask& crit) {
  if (crit.kind != TaskKind::Transport) return false;  // non-critical
  if (!fluids.contaminates(dep.fluid, crit.fluid)) return false;
  const std::span<const arch::Cell> crit_cells = crit.payloadSpan();
  for (const arch::Cell& c : dep.payloadSpan())
    if (std::find(crit_cells.begin(), crit_cells.end(), c) != crit_cells.end())
      return true;
  return false;
}

}  // namespace

bool reorderSafe(const assay::FluidRegistry& fluids, const assay::FluidTask& a,
                 const assay::FluidTask& b) {
  if (a.kind == TaskKind::Wash || b.kind == TaskKind::Wash)
    return true;  // buffer deposits are neutral
  return !depositsOnCritical(fluids, a, b) &&
         !depositsOnCritical(fluids, b, a);
}

ContaminationTracker::ContaminationTracker(
    const assay::AssaySchedule& schedule)
    : schedule_(&schedule) {
  for (assay::TaskId id : schedule.tasksByStart())
    recordTask(schedule.task(id));
  for (const assay::OpSchedule& op : schedule.opSchedules()) recordOp(op);
  for (auto& [cell, uses] : uses_) {
    std::stable_sort(uses.begin(), uses.end(),
                     [](const CellUse& a, const CellUse& b) {
                       return a.start < b.start;
                     });
  }
}

void ContaminationTracker::recordTask(const FluidTask& task) {
  // Integrated excess removals (paper eq. 7 with psi = 1) have zero
  // duration: no fluid moves, the covering wash performs the flush.
  if (task.duration() <= 1e-9) return;
  const auto& chip = schedule_->chip();
  const std::vector<arch::Cell> payload = task.payloadCells();

  switch (task.kind) {
    case TaskKind::Transport: {
      for (std::size_t i = 0; i < payload.size(); ++i) {
        const arch::Cell cell = payload[i];
        if (chip.isPortCell(cell)) continue;
        CellUse use;
        use.start = task.start;
        use.end = task.end;
        use.fluid = task.fluid;
        use.task = task.id;
        use.op = task.consumer;
        // The first payload cell holds the plug already (source device);
        // every later cell must be clean and keeps residue afterwards.
        use.critical = i > 0 || task.producer < 0;
        use.deposits = true;
        // Reagent injections start at the port: the port cell is skipped
        // above, so the first tracked cell is genuinely critical.
        add(cell, use);
      }
      break;
    }
    case TaskKind::ExcessRemoval:
    case TaskKind::WasteRemoval: {
      for (const arch::Cell& cell : payload) {
        if (chip.isPortCell(cell)) continue;
        CellUse use;
        use.start = task.start;
        use.end = task.end;
        use.fluid = task.fluid;
        use.task = task.id;
        use.critical = false;  // waste-bound: Type 3
        use.deposits = true;
        add(cell, use);
      }
      break;
    }
    case TaskKind::Wash: {
      for (const arch::Cell& cell : task.path.cells()) {
        if (chip.isPortCell(cell)) continue;
        CellUse use;
        use.start = task.start;
        use.end = task.end;
        use.fluid = schedule_->graph().fluids().buffer();
        use.task = task.id;
        use.critical = false;
        use.deposits = true;  // deposits neutral buffer == cleans
        add(cell, use);
      }
      break;
    }
  }
}

void ContaminationTracker::recordOp(const assay::OpSchedule& op) {
  CellUse use;
  use.start = op.start;
  use.end = op.end;
  use.fluid = schedule_->graph().op(op.op).result;
  use.op = op.op;
  use.critical = false;  // input cleanliness was checked on arrival
  use.deposits = true;   // the device keeps the result's residue
  add(schedule_->chip().device(op.device).cell, use);
}

void ContaminationTracker::add(arch::Cell cell, CellUse use) {
  uses_[cell].push_back(use);
}

const std::vector<CellUse>& ContaminationTracker::usesOf(
    arch::Cell cell) const {
  const auto it = uses_.find(cell);
  return it == uses_.end() ? empty_ : it->second;
}

std::vector<arch::Cell> ContaminationTracker::usedCells() const {
  std::vector<arch::Cell> cells;
  cells.reserve(uses_.size());
  for (const auto& [cell, uses] : uses_) cells.push_back(cell);
  return cells;
}

}  // namespace pdw::wash
