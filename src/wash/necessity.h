// Wash-necessity analysis (paper §II-A / eqs. 9-11).
//
// Walks every cell's chronological use list (ContaminationTracker) and emits
// a WashTarget only when residue would actually corrupt a later critical
// use. The three paper exemptions fall out of the walk:
//   Type 1 - residue never touched by a later critical use,
//   Type 2 - the next use carries the same fluid type (or a fluid that is an
//            input of the same consuming operation, for device cells),
//   Type 3 - the next use is waste-bound (excess/waste removal).
// Each exemption can be disabled individually for the ablation study.
#pragma once

#include <string>
#include <vector>

#include "wash/contamination.h"

namespace pdw::wash {

/// A cell that must be washed inside a specific window.
struct WashTarget {
  arch::Cell cell;
  assay::FluidId residue = -1;
  /// When the residue is deposited (t^c_{x,y} of eq. 9): wash cannot start
  /// before this (eq. 16's t_{j,e}).
  double ready = 0.0;
  /// Start of the critical use that requires cleanliness (eq. 16's t_{j,s}).
  double deadline = 0.0;
  /// Task/op that deposited the residue (one of the two is >= 0).
  assay::TaskId contaminating_task = -1;
  assay::OpId contaminating_op = -1;
  /// The critical use that needs the cell clean.
  assay::TaskId blocking_task = -1;
};

struct NecessityOptions {
  bool enable_type1 = true;
  bool enable_type2 = true;
  bool enable_type3 = true;
};

struct NecessityStats {
  int contaminated_cell_states = 0;  ///< residue states inspected
  int skipped_type1 = 0;
  int skipped_type2 = 0;
  int skipped_type3 = 0;
  int targets = 0;
  std::string describe() const;
};

struct NecessityResult {
  std::vector<WashTarget> targets;
  NecessityStats stats;
};

/// Analyze a (wash-free) base schedule: one walk over each used cell's
/// chronological use list, in ContaminationTracker::usedCells() order.
/// With an exemption disabled, the corresponding residues become targets:
/// Type-1 residues get the schedule end as deadline, Type-2/3 residues the
/// start of their next use.
NecessityResult analyzeWashNecessity(const ContaminationTracker& tracker,
                                     const NecessityOptions& options = {});

}  // namespace pdw::wash
