#include "ilp/lp_backend.h"

#include <atomic>

#include "ilp/revised_simplex.h"

namespace pdw::ilp {

namespace {

std::atomic<LpBackendFactory> g_substitute{nullptr};

}  // namespace

std::unique_ptr<LpBackend> makeLpBackend(const Model& model,
                                         const SolveParams& params) {
  if (const LpBackendFactory factory = g_substitute.load())
    return factory(model, params);
  return std::make_unique<RevisedSimplex>(model, params);
}

LpBackendFactory substituteLpBackendForTesting(LpBackendFactory factory) {
  return g_substitute.exchange(factory);
}

}  // namespace pdw::ilp
