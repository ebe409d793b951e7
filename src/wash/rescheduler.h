// Fixed-order rescheduler: insert wash operations into a base schedule by
// greedy earliest-slot assignment.
//
// Items (operations, fluidic tasks, washes) are processed in base-schedule
// order — washes slotted just before their earliest blocking task — and
// each is assigned the earliest start that satisfies its precedence lower
// bounds and conflicts with nothing already placed. Blocking tasks are
// pushed past their wash's end, which cascades exactly like the sweep-line
// interval assignment of the DAWO baseline [10]; PDW uses the same engine
// only as a fallback when the scheduling ILP fails within its budget.
//
// The output is valid by construction (same invariants the sim validator
// checks). core::applyDelta runs the same sweep without washes to re-time a
// delayed base schedule: release times hold each delayed item back, and
// every conflicting item behind it in base order shifts as far as it must.
//
// Everything runs on the calling thread. The path-overlap and
// device-crossing tables the sweep reads are filled by one loop before it;
// a call costs a few milliseconds at most on the Table-II benchmarks, too
// little for a thread pool to change a solve's latency.
#pragma once

#include <vector>

#include "wash/plan.h"
#include "wash/wash_op.h"

namespace pdw::wash {

/// Lower bounds on the re-timed starts: one per base operation (indexed by
/// OpId) and one per base task (indexed by TaskId). An empty vector sets no
/// bound, which is the plain insertion sweep. Items are still swept in base
/// order, so a release time delays its item without reordering the sweep.
struct ReleaseTimes {
  std::vector<double> op;
  std::vector<double> task;
};

/// Insert `washes` into `base` and retime everything downstream. The
/// returned schedule contains all base ops/tasks (same ids) plus one Wash
/// task per wash operation, appended in input order.
assay::AssaySchedule rescheduleWithWashes(
    const assay::AssaySchedule& base, const std::vector<WashOperation>& washes,
    const WashParams& params, const ReleaseTimes& release = {});

}  // namespace pdw::wash
