// Substrate bench: wall-clock cost of each PDW pipeline stage
// (google-benchmark): synthesis, contamination analysis, wash-path routing
// (ILP vs BFS; the BFS heuristic also on Synthetic3's largest wash
// operation) and the full PDW / DAWO runs on a mid-size benchmark.
//
// Also accepts the shared observability flags (bench_common.h). With
// --run-store=FILE the google-benchmark suite is skipped; instead one
// sequential Pipeline run on the IVD benchmark appends a `pdw-run-1`
// record whose rows are the per-stage timings and the solver counter
// deltas of that run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "assay/benchmarks.h"
#include "baseline/dawo.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "wash/contamination.h"
#include "wash/wash_op.h"

namespace {

using namespace pdw;

const assay::Benchmark& ivd() {
  static assay::Benchmark b = assay::makeBenchmark(assay::BenchmarkId::Ivd);
  return b;
}

const synth::SynthResult& ivdBase() {
  static synth::SynthResult base =
      synth::synthesizeOnChip(*ivd().graph, synth::placeChip(ivd().library));
  return base;
}

void BM_Synthesis(benchmark::State& state) {
  for (auto _ : state) {
    synth::SynthResult r =
        synth::synthesizeOnChip(*ivd().graph, synth::placeChip(ivd().library));
    benchmark::DoNotOptimize(r.schedule.completionTime());
  }
}
BENCHMARK(BM_Synthesis);

void BM_ContaminationAnalysis(benchmark::State& state) {
  for (auto _ : state) {
    wash::ContaminationTracker tracker(ivdBase().schedule);
    wash::NecessityResult r = analyzeWashNecessity(tracker);
    benchmark::DoNotOptimize(r.targets.size());
  }
}
BENCHMARK(BM_ContaminationAnalysis);

std::vector<arch::Cell> someTargets() {
  wash::ContaminationTracker tracker(ivdBase().schedule);
  wash::NecessityResult r = analyzeWashNecessity(tracker);
  std::vector<arch::Cell> cells;
  for (std::size_t i = 0; i < r.targets.size() && cells.size() < 4; ++i)
    cells.push_back(r.targets[i].cell);
  return cells;
}

void BM_WashPathIlp(benchmark::State& state) {
  const auto targets = someTargets();
  for (auto _ : state) {
    auto path = core::routeWashPathIlp(ivdBase().schedule.chip(), targets);
    benchmark::DoNotOptimize(path.has_value());
  }
}
BENCHMARK(BM_WashPathIlp);

void BM_WashPathHeuristic(benchmark::State& state) {
  const auto targets = someTargets();
  for (auto _ : state) {
    auto path =
        core::routeWashPathHeuristic(ivdBase().schedule.chip(), targets);
    benchmark::DoNotOptimize(path.has_value());
  }
}
BENCHMARK(BM_WashPathHeuristic);

const assay::Benchmark& synthetic3() {
  static assay::Benchmark b =
      assay::makeBenchmark(assay::BenchmarkId::Synthetic3);
  return b;
}

const synth::SynthResult& synthetic3Base() {
  static synth::SynthResult base = synth::synthesizeOnChip(
      *synthetic3().graph, synth::placeChip(synthetic3().library));
  return base;
}

/// Targets of the wash operation with the most targets among those the
/// pipeline routes for Synthetic3 (default necessity and clustering).
std::vector<arch::Cell> largestSynthetic3Targets() {
  const core::PdwOptions options;
  wash::ContaminationTracker tracker(synthetic3Base().schedule);
  wash::NecessityResult r = analyzeWashNecessity(tracker, options.necessity);
  const std::vector<wash::WashOperation> operations =
      wash::clusterTargets(std::move(r.targets), options.cluster);
  const auto largest = std::max_element(
      operations.begin(), operations.end(),
      [](const wash::WashOperation& a, const wash::WashOperation& b) {
        return a.targets.size() < b.targets.size();
      });
  return largest->targetCells();
}

/// The heuristic on Synthetic3's largest wash operation: the routing
/// problem where the per-pair waypoint chains cost the most.
void BM_WashPathHeuristicSynthetic3(benchmark::State& state) {
  const auto targets = largestSynthetic3Targets();
  state.counters["targets"] = static_cast<double>(targets.size());
  for (auto _ : state) {
    auto path = core::routeWashPathHeuristic(synthetic3Base().schedule.chip(),
                                             targets);
    benchmark::DoNotOptimize(path.has_value());
  }
}
BENCHMARK(BM_WashPathHeuristicSynthetic3);

/// Per-stage breakdown straight from the pipeline's own StageTimings (no
/// hand-derived timing around the call), reported as per-iteration averages.
void reportStageTimings(benchmark::State& state, const StageTimings& totals) {
  using benchmark::Counter;
  state.counters["analysis_s"] =
      Counter(totals.analysis_s, Counter::kAvgIterations);
  state.counters["clustering_s"] =
      Counter(totals.clustering_s, Counter::kAvgIterations);
  state.counters["routing_s"] =
      Counter(totals.routing_s, Counter::kAvgIterations);
  state.counters["scheduling_s"] =
      Counter(totals.scheduling_s, Counter::kAvgIterations);
}

void accumulate(StageTimings& totals, const StageTimings& t) {
  totals.analysis_s += t.analysis_s;
  totals.clustering_s += t.clustering_s;
  totals.routing_s += t.routing_s;
  totals.scheduling_s += t.scheduling_s;
  totals.total_s += t.total_s;
}

void BM_FullPdw(benchmark::State& state) {
  StageTimings totals;
  for (auto _ : state) {
    // Fresh Pipeline per iteration: cold route cache, like a one-shot call.
    Pipeline pipeline(core::PdwOptions{}.withThreads(1));
    PdwResult r = pipeline.run(ivdBase().schedule);
    benchmark::DoNotOptimize(r.schedule().completionTime());
    accumulate(totals, r.timings);
  }
  reportStageTimings(state, totals);
}
BENCHMARK(BM_FullPdw)->Unit(benchmark::kMillisecond);

void BM_FullPdwWarmCache(benchmark::State& state) {
  // One long-lived Pipeline: after the first iteration every wash-path
  // routing problem hits the LRU route cache.
  Pipeline pipeline(core::PdwOptions{}.withThreads(1));
  StageTimings totals;
  std::int64_t cache_hits = 0;
  for (auto _ : state) {
    PdwResult r = pipeline.run(ivdBase().schedule);
    benchmark::DoNotOptimize(r.schedule().completionTime());
    accumulate(totals, r.timings);
    cache_hits += r.metrics.counter(obs::names::kRouteCacheHits);
  }
  reportStageTimings(state, totals);
  state.counters["cache_hits"] = benchmark::Counter(
      static_cast<double>(cache_hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullPdwWarmCache)->Unit(benchmark::kMillisecond);

void BM_FullDawo(benchmark::State& state) {
  for (auto _ : state) {
    wash::WashPlanResult r = baseline::runDawo(ivdBase().schedule);
    benchmark::DoNotOptimize(r.schedule.completionTime());
  }
}
BENCHMARK(BM_FullDawo)->Unit(benchmark::kMillisecond);

/// --run-store mode: one sequential end-to-end Pipeline run on IVD, rows =
/// per-stage timings plus the run's solver counter deltas.
int runStoreMode(const bench::ObsArgs& obs_args) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricsSnapshot before = reg.snapshot();

  core::PdwOptions options = core::PdwOptions{}.withThreads(1);
  options.solver.schedule.flight = obs_args.flightConfig();
  options.solver.path.flight = options.solver.schedule.flight;

  const auto start = std::chrono::steady_clock::now();
  Pipeline pipeline(options);
  const PdwResult result = pipeline.run(ivdBase().schedule);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const obs::MetricsSnapshot delta = reg.snapshot().since(before);

  obs::RunRecord record = bench::makeRunRecord(obs_args, "bench_pipeline");
  record.config = options.solver.fingerprint();

  obs::RunRow stages;
  stages.name = "pipeline_ivd_stages";
  stages.family = "pipeline";
  stages.values = {
      {"wall_seconds", wall},
      {"analysis_seconds", result.timings.analysis_s},
      {"clustering_seconds", result.timings.clustering_s},
      {"routing_seconds", result.timings.routing_s},
      {"scheduling_seconds", result.timings.scheduling_s},
  };
  record.rows.push_back(std::move(stages));

  obs::RunRow solver;
  solver.name = "pipeline_ivd_solver";
  solver.family = "pipeline";
  solver.values = {
      {"mip_solves",
       static_cast<double>(delta.counter(obs::names::kBbSolves))},
      {"nodes", static_cast<double>(delta.counter(obs::names::kBbNodes))},
      {"simplex_iterations",
       static_cast<double>(delta.counter(obs::names::kSimplexIterations))},
      {"warm_hits",
       static_cast<double>(delta.counter(obs::names::kSimplexWarmHits))},
      {"warm_misses",
       static_cast<double>(delta.counter(obs::names::kSimplexWarmMisses))},
      {"rc_fixed",
       static_cast<double>(delta.counter(obs::names::kBbRcFixed))},
  };
  record.rows.push_back(std::move(solver));

  return bench::appendRunRecord(obs_args, record) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsArgs obs_args;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (!obs_args.consume(argc, argv, i)) bench_args.push_back(argv[i]);
  }
  obs_args.applyStartup();

  int rc = 0;
  if (!obs_args.run_store.empty()) {
    rc = runStoreMode(obs_args);
  } else {
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
      return 1;
    benchmark::RunSpecifiedBenchmarks();
  }
  obs_args.finish();
  return rc;
}
