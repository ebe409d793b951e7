// Discrete-event schedule validator.
//
// Replays an AssaySchedule and checks every structural and physical
// invariant the paper's constraints encode:
//   * eq. 1: every operation runs at least its protocol duration,
//   * eq. 2: dependency order (o_i after o_j for every edge),
//   * eq. 3: device exclusivity,
//   * eq. 4: the transport p_{j,i,1} lies between o_j's end and o_i's start,
//   * eq. 5: the excess removal p_{j,i,2} lies between its transport's end
//            and o_i's start (unless integrated into a wash),
//   * eq. 8/19/20: no two tasks with intersecting paths overlap in time; no
//            task crosses a device cell while an operation runs on it,
//   * path well-formedness: connected, port-terminated, valid payload span.
//
// Contamination safety (no cross-fluid reuse without an intervening wash) is
// not checked: a plan that leaves a wash target unwashed passes. Re-running
// the necessity analysis (wash/necessity.h) on the washed plan is the open
// plan gate of ROADMAP item 1.
#pragma once

#include <string>
#include <vector>

#include "assay/schedule.h"

namespace pdw::sim {

struct ValidationResult {
  std::vector<std::string> issues;
  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

struct ValidatorOptions {
  /// Integrated removals (zero-duration, paper eq. 7 with psi=1) are exempt
  /// from the "removal between transport and op" window check.
  bool allow_integrated_removals = true;
  double time_tol = 1e-6;
};

ValidationResult validateSchedule(const assay::AssaySchedule& schedule,
                                  const ValidatorOptions& options = {});

}  // namespace pdw::sim
