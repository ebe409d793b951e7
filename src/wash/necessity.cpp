#include "wash/necessity.h"

#include <optional>

#include "util/strings.h"

namespace pdw::wash {

namespace {

struct Residue {
  assay::FluidId fluid = -1;
  double since = 0.0;
  assay::TaskId task = -1;
  assay::OpId op = -1;
};

/// True if `fluid` is an input of operation `op` (a parent's result or an
/// injected reagent) — the device-cell generalization of Type 2: "if the
/// residue left in a device has the same type as the subsequent input
/// fluid, wash ... can be avoided".
bool isInputOf(const assay::SequencingGraph& graph, assay::FluidId fluid,
               assay::OpId op) {
  if (op < 0) return false;
  for (assay::FluidId r : graph.op(op).reagent_inputs)
    if (r == fluid) return true;
  for (assay::OpId parent : graph.parents(op))
    if (graph.op(parent).result == fluid) return true;
  return false;
}

/// The per-cell walk of eqs. 9-11 over one cell's chronological use list,
/// appending the cell's targets and counts to `out`. `horizon` is the open
/// deadline of Type-1 residues when that exemption is disabled.
void analyzeCell(const assay::AssaySchedule& schedule, arch::Cell cell,
                 const std::vector<CellUse>& uses, double horizon,
                 const NecessityOptions& options, NecessityResult& out) {
  const assay::FluidRegistry& fluids = schedule.graph().fluids();

  const auto emitTarget = [&](const Residue& residue, double deadline,
                              assay::TaskId blocking) {
    WashTarget target;
    target.cell = cell;
    target.residue = residue.fluid;
    target.ready = residue.since;
    target.deadline = deadline;
    target.contaminating_task = residue.task;
    target.contaminating_op = residue.op;
    target.blocking_task = blocking;
    out.targets.push_back(target);
    ++out.stats.targets;
  };

  std::optional<Residue> residue;
  for (const CellUse& use : uses) {
    if (residue) {
      ++out.stats.contaminated_cell_states;
      const bool dangerous = fluids.contaminates(residue->fluid, use.fluid);
      const bool input_exempt =
          dangerous && isInputOf(schedule.graph(), residue->fluid, use.op);
      if (use.critical) {
        if (!dangerous || input_exempt) {
          if (options.enable_type2) {
            ++out.stats.skipped_type2;
          } else {
            emitTarget(*residue, use.start, use.task);
            residue.reset();
          }
        } else {
          emitTarget(*residue, use.start, use.task);
          residue.reset();  // assume the wash happened before `use`
        }
      } else if (use.task >= 0) {
        // Waste-bound flush (excess/waste removal) or wash: Type 3.
        const bool is_wash =
            schedule.task(use.task).kind == assay::TaskKind::Wash;
        if (!is_wash) {
          if (options.enable_type3) {
            ++out.stats.skipped_type3;
          } else if (dangerous) {
            emitTarget(*residue, use.start, use.task);
            residue.reset();
          }
        }
      }
    }
    if (use.deposits) {
      if (fluids.kind(use.fluid) == assay::FluidKind::Buffer) {
        residue.reset();  // wash leaves the cell clean
      } else {
        // The deposit source is the task, or the operation for device
        // deposits (use.op also names the consumer op on transport uses —
        // that is not the contaminator).
        residue = Residue{use.fluid, use.end, use.task,
                          use.task >= 0 ? -1 : use.op};
      }
    }
  }
  if (residue) {
    ++out.stats.contaminated_cell_states;
    if (options.enable_type1) {
      ++out.stats.skipped_type1;
    } else {
      // Ablation: even dead residue must be washed; the deadline is open
      // (blocking_task = -1 makes the wash extend T_assay instead).
      emitTarget(*residue, horizon, -1);
    }
  }
}

}  // namespace

std::string NecessityStats::describe() const {
  return util::format(
      "states=%d type1=%d type2=%d type3=%d targets=%d",
      contaminated_cell_states, skipped_type1, skipped_type2, skipped_type3,
      targets);
}

NecessityResult analyzeWashNecessity(const ContaminationTracker& tracker,
                                     const NecessityOptions& options) {
  NecessityResult result;
  const assay::AssaySchedule& schedule = tracker.schedule();
  const double horizon = schedule.completionTime();
  for (const arch::Cell& cell : tracker.usedCells())
    analyzeCell(schedule, cell, tracker.usesOf(cell), horizon, options,
                result);
  return result;
}

}  // namespace pdw::wash
