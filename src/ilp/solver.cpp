#include "ilp/solver.h"

#include <cstdio>
#include <utility>

#include "ilp/presolve.h"

namespace pdw::ilp {

std::string fingerprint(const SolveParams& params) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "tl=%.3g nodes=%lld iters=%lld",
                params.time_limit_seconds,
                static_cast<long long>(params.node_limit),
                static_cast<long long>(params.simplex_iteration_limit));
  return buf;
}

Solution solve(const Model& model, const SolveParams& params,
               const LazyRows& lazy) {
  Model reduced = model;
  const PresolveResult pre = presolve(reduced);
  if (pre.infeasible) {
    Solution result;
    result.status = SolveStatus::Infeasible;
    return result;
  }
  return solveMip(std::move(reduced), params, lazy);
}

}  // namespace pdw::ilp
