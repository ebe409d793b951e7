// Online re-wash perturbations (DESIGN.md §15).
//
// A ScheduleDelta describes what changed between the base schedule a
// Pipeline last solved and the situation now on the chip: operations or
// tasks that slipped (a delayed thermocycler, a slow pump), cells whose
// valves jammed and must be avoided by wash routing, and waste-bound tasks
// that were cancelled. applyDelta() turns the previous base schedule plus a
// delta into the *perturbed* base schedule — the exact input a from-scratch
// re-solve would receive; Pipeline::resolve runs the same four stages on it
// that Pipeline::run does.
//
// Re-timing: every operation and task is released at its base start plus
// its own delay, then re-timed in base order by the wash-insertion sweep
// (wash::rescheduleWithWashes, with no washes). A delay pushes every later
// item that depends on the delayed one, shares its device, crosses its
// device cell or shares a path cell with it, each just far enough; pairs
// that share a cell and are not reorder-safe keep their base use order.
// The perturbed base is therefore valid by construction (it passes
// sim::validateSchedule), no item starts before its base start, and a delta
// without delays (blocked cells, removals) leaves every start unchanged.
#pragma once

#include <string>
#include <vector>

#include "assay/schedule.h"
#include "wash/rescheduler.h"

namespace pdw::core {

struct ScheduleDelta {
  struct OpDelay {
    assay::OpId op = -1;
    double delay_s = 0.0;
  };
  struct TaskDelay {
    assay::TaskId task = -1;
    double delay_s = 0.0;
  };

  std::vector<OpDelay> op_delays;
  std::vector<TaskDelay> task_delays;
  /// Cells wash routing must avoid from now on (stuck valve, damaged cell).
  /// Routing-only: the base schedule's own paths are already committed.
  std::vector<arch::Cell> blocked_cells;
  /// Cancelled waste-bound tasks (ExcessRemoval / WasteRemoval only —
  /// removing a Transport would orphan its consumer operation).
  std::vector<assay::TaskId> removed_tasks;

  bool empty() const {
    return op_delays.empty() && task_delays.empty() &&
           blocked_cells.empty() && removed_tasks.empty();
  }
};

/// Result of applying a delta to a base schedule.
struct AppliedDelta {
  bool valid = false;
  std::string error;  ///< set when !valid (unknown id, transport removal...)
  /// The perturbed base schedule (same graph/chip as the input).
  assay::AssaySchedule schedule;
  /// What re-timed it: each op and task of `schedule` (by its id) released
  /// at its base start plus its own delay. Pipeline::resolve hands them to
  /// scheduling, so a re-solve never starts an item before its release.
  wash::ReleaseTimes release;
};

/// Validate `delta` against `base` and produce the perturbed schedule.
/// Deterministic: the same (base, delta) always yields the same schedule,
/// so Pipeline::resolve and a cold re-solve start from identical input.
AppliedDelta applyDelta(const assay::AssaySchedule& base,
                        const ScheduleDelta& delta);

}  // namespace pdw::core
