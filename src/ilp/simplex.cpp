#include "ilp/simplex.h"

#include "ilp/lp_backend.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pdw::ilp {

// Standalone entry point: one cold solve. Branch-and-bound does not go
// through here — it owns a persistent LpBackend per search so node LPs can
// warm-start (see lp_backend.h); this wrapper serves pure-LP models and
// tests, where there is no prior basis to reuse.
LpResult solveLp(const Model& model, const SolveParams& params) {
  std::vector<double> lower, upper;
  const std::size_t n = static_cast<std::size_t>(model.numVars());
  lower.reserve(n);
  upper.reserve(n);
  for (const Variable& v : model.vars()) {
    lower.push_back(v.lower);
    upper.push_back(v.upper);
  }
  const std::unique_ptr<LpBackend> engine = makeLpBackend(model, params);
  LpResult result = engine->solve(lower, upper, /*allow_warm=*/false);
  // Batched per call, not per pivot: three relaxed adds per LP.
  static obs::Counter& calls =
      obs::Registry::instance().counter(obs::names::kSimplexCalls);
  static obs::Counter& iterations =
      obs::Registry::instance().counter(obs::names::kSimplexIterations);
  static obs::Counter& refactorizations =
      obs::Registry::instance().counter(obs::names::kSimplexRefactorizations);
  calls.increment();
  iterations.add(result.iterations);
  refactorizations.add(result.factorizations);
  return result;
}

}  // namespace pdw::ilp
