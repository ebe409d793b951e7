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
// Shift propagation: delayed items push their structural successors
// (operation dependencies, producer -> transport -> consumer chains,
// removal-after-transport edges, same-device exclusivity in base order)
// forward just enough to stay consistent; everything else keeps its base
// start. Spatial (path-overlap) and shared-cell conflicts are NOT
// re-serialized here, so a delayed base can overlap two tasks in space and
// time (ROADMAP item 1); the scheduling stage re-times everything, and the
// cold and the resolve path see the same perturbed schedule.
#pragma once

#include <string>
#include <vector>

#include "assay/schedule.h"

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
  /// Compact human-readable summary for logs ("2 op delays, 1 blocked cell").
  std::string describe() const;
};

/// Result of applying a delta to a base schedule.
struct AppliedDelta {
  bool valid = false;
  std::string error;  ///< set when !valid (unknown id, transport removal...)
  /// The perturbed base schedule (same graph/chip as the input).
  assay::AssaySchedule schedule;
};

/// Validate `delta` against `base` and produce the perturbed schedule.
/// Deterministic: the same (base, delta) always yields the same schedule,
/// so Pipeline::resolve and a cold re-solve start from identical input.
AppliedDelta applyDelta(const assay::AssaySchedule& base,
                        const ScheduleDelta& delta);

}  // namespace pdw::core
