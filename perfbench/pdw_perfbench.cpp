// pdw_perfbench — the PDW benchmark's workload program.
//
//   pdw_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (closed loop, one caller, at most 4 threads):
//   cold-small  fresh Pipeline::run per solve of PCR, IVD, Kinase act-1
//   cold-large  fresh Pipeline::run per solve of ProteinSplit, Synthetic1,
//               Synthetic3
//   rewash      Pipeline::resolve deltas against resident pipelines of PCR
//               and Kinase act-1 (op delay, task delay, blocked cell,
//               removed waste task)
//   deadline    service::Daemon::handleLine solve requests for all eight
//               Table-II assays at fixed deadline_ms values, cache bypassed
//
// The cold and rewash workloads cap every ILP by nodes and give it a
// wall-clock limit that never binds, so their plans are deterministic and
// their wall time measures the code. The seed orders the cold passes, the
// rewash delta segments and the deadline requests; every run of a workload
// measures the same inputs.
//
// Every operation passes the correctness gate (validator, contamination
// re-analysis, no unroutable operation, no greedy fallback, no ILP at its
// wall-clock limit, no rejected resolve, no pdwd error/deadline status).
// Rewash deltas whose repair falls back to greedy are counted and left out.
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-runs the workload
// with per-layer accounting: each cold solve is replayed stage by stage
// through the public layer calls (the replayed plan must equal the
// Pipeline::run plan), resolve and daemon layers are read from PdwResult,
// the responses and registry deltas. The last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}; the exit code is 1 on
// any failed check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "core/route_cache.h"
#include "core/schedule_delta.h"
#include "core/schedule_ilp.h"
#include "core/wash_path_ilp.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "sim/validator.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/wash_op.h"

namespace {

using namespace pdw;
using Clock = std::chrono::steady_clock;
using assay::BenchmarkId;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall-clock limit given to every ILP of a work-capped workload. No run of
/// this benchmark comes near it, so node caps alone decide where a solve
/// stops; the gate still checks that no stage reached it.
constexpr double kNoWallLimit = 3600.0;

/// Set-up is repeated this many times per run and setup_s is the median;
/// rewash set-up primes its pipelines cold, so it repeats less.
constexpr int kSetupReps = 9;
constexpr int kRewashSetupReps = 3;

/// Reconciliation bound: replayed stage times summed over a run must lie
/// within this share of the Pipeline::run stage times they mirror. A traced
/// cold-large run replays only a few solves, so one burst of load on the
/// machine can move a sum by tens of percent; a replay that does different
/// work shows up as a multiple.
constexpr double kReconcileBound = 0.5;

/// Stages shorter than this (summed over a run) are too short to reconcile.
constexpr double kReconcileFloorS = 0.05;

/// rewash: the delta pool. Each of kSegmentsPerAssay segments per assay
/// starts from a freshly primed resident (new pipeline, empty route cache)
/// and applies kSegmentDeltas deltas (two cycles of the four kinds) from a
/// generator seeded by kPoolSeed, the assay and the segment only. So at most
/// kSegmentDeltas deltas compose and at most two blocked cells accumulate.
constexpr int kSegmentsPerAssay = 3;
constexpr int kSegmentDeltas = 8;
constexpr std::uint64_t kPoolSeed = 0x5eed;

/// Deadline workload: request deadlines and the slack a response may take
/// beyond its deadline before it counts as a miss.
const std::vector<double> kDeadlinesMs = {100.0, 250.0};
constexpr double kDeadlineSlackMs = 50.0;

struct Caps {
  std::int64_t schedule_nodes = 0;
  std::int64_t path_nodes = 0;
};

core::PdwOptions cappedOptions(Caps caps) {
  core::PdwOptions options;
  options.withThreads(1)
      .withScheduleBudget(kNoWallLimit, caps.schedule_nodes)
      .withPathBudget(kNoWallLimit, caps.path_nodes);
  return options;
}

struct WorkloadSpec {
  const char* name;
  std::vector<BenchmarkId> assays;
  Caps caps;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"cold-small",
       {BenchmarkId::Pcr, BenchmarkId::Ivd, BenchmarkId::KinaseAct1},
       {200, 20}},
      {"cold-large",
       {BenchmarkId::ProteinSplit, BenchmarkId::Synthetic1,
        BenchmarkId::Synthetic3},
       {20, 20}},
      {"rewash", {BenchmarkId::Pcr, BenchmarkId::KinaseAct1}, {20, 100}},
      {"deadline", assay::allBenchmarks(), {0, 0}},
  };
  return specs;
}

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

/// The tail percentile. Fixed rather than "the highest percentile with ten
/// samples beyond it": the operations of a run are whole passes over a fixed
/// mix, and a percentile that moved with the number of passes that fit in a
/// run would jump between the mix's kinds when the code got faster.
constexpr double kTailPct = 90.0;

/// Samples strictly above the tail value (stated beside the metric).
std::size_t beyondTail(const std::vector<double>& values) {
  const double tail = percentile(values, kTailPct);
  return static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(), [&](double v) { return v > tail; }));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- run state --------------------------------------------------------------

/// Attempted / failed operations; every failure is reported on stderr.
struct Gate {
  int attempted = 0;
  int failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "pdw_perfbench: FAIL %s\n", what.c_str());
    }
  }
};

/// Per-layer totals of a traced run, normalized per operation at the end.
struct Layers {
  double place_s = 0.0, synthesize_s = 0.0;
  double necessity_s = 0.0, cluster_s = 0.0;
  double targets = 0.0, operations = 0.0;
  double frontier_cells = 0.0, resolve_cells = 0.0;
  double route_s = 0.0, route_calls = 0.0, ilp_rounds = 0.0;
  double connectivity_cuts = 0.0, bfs_fallbacks = 0.0;
  double ilp_gain_mm = 0.0, ilp_wins = 0.0, gain_ops = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0;
  double schedule_s = 0.0, phase_b_gain = 0.0, order_binaries = 0.0;
  double proven_optimal = 0.0, schedules = 0.0, greedy_fallbacks = 0.0;
  double ilp_solves = 0.0, ilp_nodes = 0.0, ilp_iterations = 0.0;
  double ilp_seconds = 0.0, ilp_warm_hits = 0.0, ilp_warm_misses = 0.0;
  double ilp_cuts = 0.0, ilp_refactorizations = 0.0, ilp_diver_nodes = 0.0;
  double service_queue_ms = 0.0, service_server_ms = 0.0;
  double service_overhead_ms = 0.0, service_requests = 0.0;
  double service_budget_hits = 0.0, service_deadline_expired = 0.0;
  std::vector<double> deadline_ratios;
  double deadline_misses = 0.0;
  double pool_executed = 0.0, pool_stolen = 0.0;
  double validate_s = 0.0;
  /// Traced vs untraced wall of the same operations.
  double traced_wall_s = 0.0, untraced_wall_s = 0.0;
  /// Replayed vs Pipeline::run stage times (cold workloads).
  double replay_route_s = 0.0, pipeline_route_s = 0.0;
  double replay_schedule_s = 0.0, pipeline_schedule_s = 0.0;
  double ops = 0.0;

  /// Fold the solver counters of a per-operation registry delta in.
  void addIlp(const obs::MetricsSnapshot& m) {
    ilp_solves += static_cast<double>(m.counter(obs::names::kBbSolves));
    ilp_nodes += static_cast<double>(m.counter(obs::names::kBbNodes));
    ilp_iterations +=
        static_cast<double>(m.counter(obs::names::kSimplexIterations));
    ilp_warm_hits += static_cast<double>(m.counter(obs::names::kSimplexWarmHits));
    ilp_warm_misses +=
        static_cast<double>(m.counter(obs::names::kSimplexWarmMisses));
    ilp_cuts += static_cast<double>(m.counter(obs::names::kCutsAdded));
    ilp_refactorizations +=
        static_cast<double>(m.counter(obs::names::kSimplexRefactorizations));
    ilp_diver_nodes += static_cast<double>(m.counter(obs::names::kBbDiverNodes));
    pool_executed +=
        static_cast<double>(m.counter(obs::names::kPoolTasksExecuted));
    pool_stolen += static_cast<double>(m.counter(obs::names::kPoolTasksStolen));
    ilp_seconds += histogramSum(m, obs::names::kSolveSeconds);
  }

  /// Fold the pipeline-stage readings of a registry delta in: the source of
  /// the wash, route and schedule layers where no PdwResult is at hand
  /// (the daemon serves the pipeline behind its protocol).
  void addStages(const obs::MetricsSnapshot& m) {
    using namespace obs::names;
    necessity_s += histogramSum(m, kStageAnalysisSeconds);
    cluster_s += histogramSum(m, kStageClusteringSeconds);
    route_s += histogramSum(m, kStageRoutingSeconds);
    schedule_s += histogramSum(m, kStageSchedulingSeconds);
    targets += static_cast<double>(m.counter(kNecessityTargets));
    operations += static_cast<double>(m.counter(kClusterOperations));
    ilp_rounds += static_cast<double>(m.counter(kPathIlpSolves));
    connectivity_cuts += static_cast<double>(m.counter(kPathIlpConnectivityCuts));
    bfs_fallbacks += static_cast<double>(m.counter(kPathIlpFallbacks));
    cache_hits += static_cast<double>(m.counter(kRouteCacheHits));
    cache_misses += static_cast<double>(m.counter(kRouteCacheMisses));
    route_calls += static_cast<double>(m.counter(kRouteCacheMisses));
  }

  static double histogramSum(const obs::MetricsSnapshot& m, const char* name) {
    const auto it = m.values.find(name);
    return it == m.values.end() ? 0.0 : it->second.value;
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run measured.
struct RunResult {
  Gate gate;
  std::vector<double> latency_ms;
  std::vector<double> setup_s;
  double n_wash = 0.0, l_wash_mm = 0.0, t_assay_s = 0.0;
  Layers layers;
  std::string detail;  ///< workload-specific summary line
};

// ---- assays -------------------------------------------------------------------

/// One synthesized Table-II assay: graph, chip and wash-oblivious schedule.
struct Assay {
  assay::Benchmark bench;
  synth::SynthResult synth;
  const assay::AssaySchedule& base() const { return synth.schedule; }
  const std::string& name() const { return bench.name; }
};

std::vector<std::unique_ptr<Assay>> synthesizeAssays(
    const std::vector<BenchmarkId>& ids, Layers& layers) {
  std::vector<std::unique_ptr<Assay>> out;
  for (BenchmarkId id : ids) {
    auto a = std::make_unique<Assay>();
    a->bench = assay::makeBenchmark(id);
    auto t0 = Clock::now();
    std::unique_ptr<arch::ChipLayout> chip = synth::placeChip(a->bench.library);
    layers.place_s += secondsSince(t0);
    t0 = Clock::now();
    a->synth = synth::synthesizeOnChip(*a->bench.graph, std::move(chip));
    layers.synthesize_s += secondsSince(t0);
    out.push_back(std::move(a));
  }
  return out;
}

// ---- correctness gate --------------------------------------------------------

/// Empty when `result` is a correct plan of a work-capped workload, else
/// the reason it is not. Validation time is charged to sim.validate_s.
std::string planProblem(const PdwResult& result, Layers& layers) {
  if (result.unroutable_operations > 0)
    return std::to_string(result.unroutable_operations) +
           " unroutable wash operations";
  if (result.solver.schedule_greedy_fallback)
    return "scheduling fell back to greedy insertion";
  // A stage shorter than the wall-clock limit cannot contain an ILP that
  // stopped on it.
  if (result.timings.routing_s >= kNoWallLimit ||
      result.timings.scheduling_s >= kNoWallLimit)
    return "an ILP reached its wall-clock limit";
  const auto t0 = Clock::now();
  sim::ValidatorOptions tol;
  tol.time_tol = 1e-4;
  const sim::ValidationResult valid = sim::validateSchedule(result.schedule(), tol);
  const wash::ContaminationTracker tracker(result.schedule());
  const std::size_t left = wash::analyzeWashNecessity(tracker).targets.size();
  layers.validate_s += secondsSince(t0);
  if (!valid.ok()) return "validator: " + valid.summary();
  if (left > 0)
    return "contamination re-analysis left " + std::to_string(left) +
           " wash targets";
  return "";
}

void addQuality(RunResult& run, const assay::AssaySchedule& plan) {
  run.n_wash += plan.washCount();
  run.l_wash_mm += plan.washLengthMm();
  run.t_assay_s += plan.completionTime();
}

// ---- traced replay of a cold solve ---------------------------------------------

/// Re-run the four stages of Pipeline::run(base) through the public layer
/// calls, with the options the Pipeline resolved, timing each call. Returns
/// the canonical replayed plan.
std::string replaySolve(const assay::AssaySchedule& base,
                        const core::PdwOptions& options, Layers& layers,
                        double* replay_wall_s) {
  const auto start = Clock::now();
  double untimed_s = 0.0;  // usefulness probes beside the mirrored calls

  auto t0 = Clock::now();
  const wash::ContaminationTracker tracker(base);
  wash::NecessityResult necessity =
      wash::analyzeWashNecessity(tracker, options.necessity);
  layers.necessity_s += secondsSince(t0);
  layers.targets += static_cast<double>(necessity.targets.size());
  if (necessity.targets.empty()) {
    *replay_wall_s = secondsSince(start);
    return service::canonicalPlan(base);
  }

  t0 = Clock::now();
  std::vector<wash::WashOperation> washes =
      wash::clusterTargets(std::move(necessity.targets), options.cluster);
  layers.cluster_s += secondsSince(t0);
  layers.operations += static_cast<double>(washes.size());

  const arch::ChipLayout& chip = base.chip();
  std::optional<core::RouteCache> cache;
  if (options.route_cache_capacity > 0)
    cache.emplace(options.route_cache_capacity);
  double route_s = 0.0;
  std::vector<wash::WashOperation> routed;
  for (wash::WashOperation& w : washes) {
    const std::vector<arch::Cell> targets = w.targetCells();
    t0 = Clock::now();
    std::optional<arch::FlowPath> path;
    bool hit = false;
    core::RouteKey key;
    if (cache) {
      key = core::RouteCache::makeKey(chip, targets, options.use_ilp_paths,
                                      options.path);
      if (auto cached = cache->lookup(key)) {
        path = std::move(*cached);
        hit = true;
      }
    }
    core::WashPathStats stats;
    if (!hit) {
      path = options.use_ilp_paths
                 ? core::routeWashPathIlp(chip, targets, options.path, &stats)
                 : core::routeWashPathHeuristic(chip, targets,
                                                options.path.avoid_cells);
      if (!path)
        path = core::routeWashPathHeuristic(chip, targets,
                                            options.path.avoid_cells);
      if (cache) cache->insert(key, path);
    }
    route_s += secondsSince(t0);
    if (hit) {
      layers.cache_hits += 1.0;
    } else {
      layers.cache_misses += 1.0;
      layers.route_calls += 1.0;
      layers.ilp_rounds += stats.ilp_solves;
      layers.connectivity_cuts += stats.connectivity_cuts;
      layers.bfs_fallbacks += stats.used_fallback ? 1.0 : 0.0;
      // Did the ILP buy anything? Route the same targets with the BFS
      // heuristic alone and compare lengths (untimed).
      const auto probe = Clock::now();
      const std::optional<arch::FlowPath> bfs = core::routeWashPathHeuristic(
          chip, targets, options.path.avoid_cells);
      if (bfs && path) {
        const double gain =
            bfs->lengthMm(chip.pitchMm()) - path->lengthMm(chip.pitchMm());
        layers.ilp_gain_mm += gain;
        layers.ilp_wins += gain > 1e-9 ? 1.0 : 0.0;
        layers.gain_ops += 1.0;
      }
      untimed_s += secondsSince(probe);
    }
    if (path && !path->empty()) {
      w.path = *path;
      routed.push_back(std::move(w));
    }
  }
  layers.route_s += route_s;
  layers.replay_route_s += route_s;

  t0 = Clock::now();
  util::ThreadPool pool(options.num_threads);
  core::ScheduleIlpOptions ilp;
  ilp.alpha = options.alpha;
  ilp.beta = options.beta;
  ilp.gamma = options.gamma;
  ilp.wash = options.wash;
  ilp.order_horizon_s = options.order_horizon_s;
  ilp.enable_integration = options.enable_integration;
  ilp.solver = options.solver.schedule;
  ilp.pool = &pool;
  if (pool.size() >= 2 && ilp.solver.portfolio_threads < 2)
    ilp.solver.portfolio_threads = 2;
  core::ScheduleIlpResult scheduled = core::solveWashSchedule(base, routed, ilp);
  const double schedule_s = secondsSince(t0);
  layers.schedule_s += schedule_s;
  layers.replay_schedule_s += schedule_s;
  layers.schedules += 1.0;
  layers.order_binaries += scheduled.num_order_binaries;
  layers.proven_optimal += scheduled.proven_optimal ? 1.0 : 0.0;

  // Did phase B buy anything? Phase A alone is the repair-mode solve of the
  // same input (untimed).
  const auto probe = Clock::now();
  core::ScheduleIlpOptions phase_a = ilp;
  phase_a.repair_mode = true;
  const core::ScheduleIlpResult a_only =
      core::solveWashSchedule(base, routed, phase_a);
  if (a_only.success && scheduled.success)
    layers.phase_b_gain += a_only.objective - scheduled.objective;
  untimed_s += secondsSince(probe);

  *replay_wall_s = secondsSince(start) - untimed_s;
  return scheduled.success ? service::canonicalPlan(scheduled.schedule) : "";
}

// ---- workloads -------------------------------------------------------------------

/// cold-small / cold-large: whole passes over the assays (seeded order), a
/// fresh single-thread Pipeline per solve, until `seconds` have elapsed.
void runCold(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
             bool trace, RunResult& run) {
  std::vector<std::unique_ptr<Assay>> assays;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Layers rep_layers;
    const auto t0 = Clock::now();
    assays = synthesizeAssays(spec.assays, rep_layers);
    run.setup_s.push_back(secondsSince(t0));
    run.layers.place_s += rep_layers.place_s / kSetupReps;
    run.layers.synthesize_s += rep_layers.synthesize_s / kSetupReps;
  }
  const core::PdwOptions options = cappedOptions(spec.caps);
  obs::Registry& reg = obs::Registry::instance();

  util::Rng rng(seed);
  std::vector<std::size_t> order(assays.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // The first pass's plan of each assay: every later pass must repeat it
  // byte for byte (the work caps make the plans deterministic).
  std::vector<std::string> first_plan(assays.size());
  std::vector<std::vector<double>> by_assay(assays.size());
  int passes = 0;
  const auto start = Clock::now();
  while (passes == 0 || secondsSince(start) < seconds) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);
    for (std::size_t idx : order) {
      const Assay& a = *assays[idx];
      const obs::MetricsSnapshot before =
          trace ? reg.snapshot() : obs::MetricsSnapshot{};
      const auto t0 = Clock::now();
      Pipeline pipeline(options);
      const PdwResult result = pipeline.run(a.base());
      const double wall_s = secondsSince(t0);
      run.latency_ms.push_back(wall_s * 1000.0);
      by_assay[idx].push_back(wall_s * 1000.0);

      std::string problem = planProblem(result, run.layers);
      const std::string plan = service::canonicalPlan(result.schedule());
      if (passes == 0) {
        first_plan[idx] = plan;
        addQuality(run, result.schedule());
      } else if (problem.empty() && plan != first_plan[idx]) {
        problem = "plan differs from the first pass (not deterministic)";
      }
      if (trace) {
        Layers& l = run.layers;
        l.ops += 1.0;
        l.addIlp(reg.snapshot().since(before));
        l.pipeline_route_s += result.timings.routing_s;
        l.pipeline_schedule_s += result.timings.scheduling_s;
        double replay_wall_s = 0.0;
        const std::string replayed =
            replaySolve(a.base(), pipeline.options(), l, &replay_wall_s);
        l.traced_wall_s += replay_wall_s;
        l.untraced_wall_s += result.timings.total_s;
        if (problem.empty() && replayed != plan)
          problem = "replayed plan differs from Pipeline::run";
      }
      run.gate.record(problem.empty(), a.name() + ": " + problem);
    }
    ++passes;
  }
  std::ostringstream detail;
  detail << "passes " << passes << ", caps schedule "
         << spec.caps.schedule_nodes << " / path " << spec.caps.path_nodes
         << " nodes, 1 thread; p50 ms by assay:";
  for (std::size_t i = 0; i < assays.size(); ++i)
    detail << " " << assays[i]->name() << " " << median(by_assay[i]);
  run.detail = detail.str();
}

/// One resident pipeline of the rewash workload plus the state its delta
/// generator needs: the perturbed base the pipeline currently holds (the
/// same applyDelta chain resolve() runs), the plan it last returned and the
/// cells blocked so far.
struct Resident {
  const Assay* assay = nullptr;
  std::unique_ptr<Pipeline> pipeline;
  assay::AssaySchedule base;
  assay::AssaySchedule plan;
  std::set<arch::Cell> blocked;
  util::Rng rng;
  int deltas = 0;

  /// Re-prime a fresh pipeline (so no route cached by an earlier segment
  /// survives) on the pristine schedule and restart the generator.
  void restart(const core::PdwOptions& options,
               std::uint64_t generator_seed) {
    pipeline = std::make_unique<Pipeline>(options);
    plan = pipeline->run(assay->base()).schedule();
    base = assay->base();
    blocked.clear();
    rng = util::Rng(generator_seed);
    deltas = 0;
  }
};

/// Cells a blocked-cell delta may take: on the current plan's wash paths,
/// but neither a wash target of the current base, a port nor a device cell,
/// and not blocked already — so blocking one forces a reroute instead of
/// deleting a wash.
std::vector<arch::Cell> blockableCells(const Resident& r) {
  const wash::ContaminationTracker tracker(r.base);
  std::set<arch::Cell> targets;
  for (const wash::WashTarget& t : wash::analyzeWashNecessity(tracker).targets)
    targets.insert(t.cell);
  const arch::ChipLayout& chip = r.base.chip();
  std::set<arch::Cell> cells;
  for (const assay::FluidTask& task : r.plan.tasks()) {
    if (task.kind != assay::TaskKind::Wash) continue;
    for (const arch::Cell& c : task.path.cells())
      if (!targets.count(c) && !r.blocked.count(c) && !chip.isPortCell(c) &&
          !chip.isDeviceCell(c))
        cells.insert(c);
  }
  return {cells.begin(), cells.end()};
}

/// The next delta of `r`'s seeded stream. Kinds cycle op delay, task delay,
/// blocked cell, removed waste task; a kind with no candidate falls through
/// to an op delay.
core::ScheduleDelta nextDelta(Resident& r, std::string* kind) {
  core::ScheduleDelta delta;
  const double delay_s = 0.5 + 0.25 * r.rng.intIn(0, 18);
  switch (r.deltas++ % 4) {
    case 1:
      if (!r.base.tasks().empty()) {
        delta.task_delays.push_back(
            {static_cast<assay::TaskId>(r.rng.index(r.base.tasks().size())),
             delay_s});
        *kind = "task_delay";
        return delta;
      }
      break;
    case 2: {
      const std::vector<arch::Cell> cells = blockableCells(r);
      if (!cells.empty()) {
        delta.blocked_cells.push_back(cells[r.rng.index(cells.size())]);
        *kind = "blocked_cell";
        return delta;
      }
      break;
    }
    case 3: {
      std::vector<assay::TaskId> waste;
      for (const assay::FluidTask& t : r.base.tasks())
        if (t.isWasteBound()) waste.push_back(t.id);
      if (!waste.empty()) {
        delta.removed_tasks.push_back(waste[r.rng.index(waste.size())]);
        *kind = "removed_task";
        return delta;
      }
      break;
    }
    default:
      break;
  }
  delta.op_delays.push_back(
      {static_cast<assay::OpId>(r.rng.index(r.base.opSchedules().size())),
       delay_s});
  *kind = "op_delay";
  return delta;
}

/// rewash: resident pipelines primed cold during set-up, then the fixed
/// pool of delta segments — kSegmentsPerAssay per assay, each starting from
/// a freshly primed resident and applying kSegmentDeltas deltas drawn from
/// its own generator — in seeded order, whole passes over the pool until
/// `seconds` have elapsed. Every run thus measures the same deltas; the
/// seed orders them.
void runRewash(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
               bool trace, RunResult& run) {
  const core::PdwOptions options = cappedOptions(spec.caps);
  std::vector<std::unique_ptr<Assay>> assays;
  std::vector<Resident> residents;
  std::vector<std::string> first_plan(spec.assays.size());
  for (int rep = 0; rep < kRewashSetupReps; ++rep) {
    Layers rep_layers;
    const auto t0 = Clock::now();
    assays = synthesizeAssays(spec.assays, rep_layers);
    residents.clear();
    for (std::size_t i = 0; i < assays.size(); ++i) {
      Resident r;
      r.assay = assays[i].get();
      r.pipeline = std::make_unique<Pipeline>(options);
      const PdwResult primed = r.pipeline->run(r.assay->base());
      // Every set-up repetition must prime the same plan.
      const std::string plan = service::canonicalPlan(primed.schedule());
      if (rep == 0) first_plan[i] = plan;
      if (rep + 1 == kRewashSetupReps) {
        std::string problem = planProblem(primed, run.layers);
        if (problem.empty() && plan != first_plan[i])
          problem = "primed plan differs between set-ups (not deterministic)";
        run.gate.record(problem.empty(),
                        r.assay->name() + " priming: " + problem);
        addQuality(run, primed.schedule());
      }
      residents.push_back(std::move(r));
    }
    run.setup_s.push_back(secondsSince(t0));
    run.layers.place_s += rep_layers.place_s / kRewashSetupReps;
    run.layers.synthesize_s += rep_layers.synthesize_s / kRewashSetupReps;
  }

  std::vector<std::pair<std::size_t, int>> segments;
  for (std::size_t i = 0; i < residents.size(); ++i)
    for (int k = 0; k < kSegmentsPerAssay; ++k) segments.push_back({i, k});
  std::map<std::string, std::vector<double>> by_kind;
  int greedy_fallbacks = 0;
  util::Rng order(seed);
  int passes = 0;
  const auto start = Clock::now();
  while (passes == 0 || secondsSince(start) < seconds) {
    for (std::size_t n = segments.size(); n > 1; --n)
      std::swap(segments[n - 1], segments[order.index(n)]);
    for (const auto& [i, k] : segments) {
      Resident& r = residents[i];
      r.restart(options, kPoolSeed + 1000 * i + static_cast<std::uint64_t>(k));
      for (int d = 0; d < kSegmentDeltas; ++d) {
        std::string kind;
        const core::ScheduleDelta delta = nextDelta(r, &kind);
        const core::AppliedDelta applied = core::applyDelta(r.base, delta);
        const auto t0 = Clock::now();
        const PdwResult result = r.pipeline->resolve(delta);
        const double ms = secondsSince(t0) * 1000.0;
        const std::string what = r.assay->name() + " segment " +
                                 std::to_string(k) + " delta " +
                                 std::to_string(d) + " (" + kind + "): ";
        if (!applied.valid || !result.resolve.valid) {
          run.gate.record(false, what + "resolve rejected: " +
                                     (applied.valid ? result.resolve.error
                                                    : applied.error));
          break;
        }
        if (result.solver.schedule_greedy_fallback) {
          // The phase-A repair found no schedule for this delta and the
          // plan is a greedy insertion, which today can leave contamination
          // behind. Such deltas are outside the workload: counted
          // (schedule.greedy_fallback_frac), not timed or gated, and the
          // rest of the segment is skipped.
          ++greedy_fallbacks;
          break;
        }
        run.latency_ms.push_back(ms);
        by_kind[kind].push_back(ms);
        // The pipeline re-based on the perturbed schedule; follow it.
        r.base = applied.schedule;
        r.plan = result.schedule();
        for (const arch::Cell& c : delta.blocked_cells) r.blocked.insert(c);
        const std::string problem = planProblem(result, run.layers);
        run.gate.record(problem.empty(), what + problem);

        if (trace) {
          const auto t1 = Clock::now();
          Layers& l = run.layers;
          l.ops += 1.0;
          l.necessity_s += result.timings.analysis_s;
          l.cluster_s += result.timings.clustering_s;
          l.targets += result.plan.necessity.targets;
          l.operations += result.wash_operations;
          l.frontier_cells += result.resolve.frontier_cells;
          l.resolve_cells +=
              result.resolve.frontier_cells + result.resolve.reused_cells;
          l.route_s += result.timings.routing_s;
          l.route_calls += static_cast<double>(result.cache.misses);
          l.ilp_rounds += result.solver.path_ilp_solves;
          l.connectivity_cuts += result.solver.path_connectivity_cuts;
          l.bfs_fallbacks += result.solver.path_fallbacks;
          l.cache_hits += static_cast<double>(result.cache.hits);
          l.cache_misses += static_cast<double>(result.cache.misses);
          l.schedule_s += result.timings.scheduling_s;
          l.schedules += 1.0;
          l.order_binaries += static_cast<double>(
              result.metrics.gauge(obs::names::kScheduleIlpOrderBinaries));
          l.addIlp(result.metrics);
          l.untraced_wall_s += ms / 1000.0;
          l.traced_wall_s += ms / 1000.0 + secondsSince(t1);
        }
      }
    }
    ++passes;
  }
  std::ostringstream detail;
  detail << "passes " << passes << " over " << segments.size()
         << " segments of " << kSegmentDeltas << " deltas, caps schedule "
         << spec.caps.schedule_nodes << " / path " << spec.caps.path_nodes
         << " nodes, 1 thread; " << greedy_fallbacks
         << " greedy repairs left out; p50 ms by kind:";
  for (const auto& [kind, ms] : by_kind)
    detail << " " << kind << " " << median(ms) << " (n=" << ms.size() << ")";
  run.detail = detail.str();
  run.layers.greedy_fallbacks = greedy_fallbacks;
}

/// deadline: one client calling Daemon::handleLine in process (4-thread
/// pool, one lane, caches bypassed) with solve requests for every assay at
/// every deadline, in seeded order, until `seconds` have elapsed.
void runDeadline(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 bool trace, RunResult& run) {
  service::DaemonOptions daemon_options;
  daemon_options.lanes = 1;
  daemon_options.threads = 4;
  std::unique_ptr<service::Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    Layers rep_layers;
    const auto t0 = Clock::now();
    daemon = std::make_unique<service::Daemon>(daemon_options);
    const std::string pong = daemon->handleLine(
        R"({"schema":"pdw-req-1","type":"ping","id":"setup"})");
    // The placement + synthesis each assay's first request pays inside the
    // daemon, measured through the same public calls.
    synthesizeAssays(spec.assays, rep_layers);
    run.setup_s.push_back(secondsSince(t0));
    run.layers.place_s += rep_layers.place_s / kSetupReps;
    run.layers.synthesize_s += rep_layers.synthesize_s / kSetupReps;
    if (pong.find("\"status\":\"ok\"") == std::string::npos) {
      run.gate.record(false, "daemon did not answer ping: " + pong);
      return;
    }
  }

  struct Request {
    std::string assay;
    double deadline_ms;
  };
  std::vector<Request> requests;
  for (BenchmarkId id : spec.assays)
    for (double d : kDeadlinesMs)
      if (id != BenchmarkId::KinaseAct2 || d == kDeadlinesMs.back())
        requests.push_back({assay::toString(id), d});

  obs::Registry& reg = obs::Registry::instance();
  util::Rng rng(seed);
  int passes = 0;
  int seq = 0;
  const auto start = Clock::now();
  while (passes == 0 || secondsSince(start) < seconds) {
    for (std::size_t i = requests.size(); i > 1; --i)
      std::swap(requests[i - 1], requests[rng.index(i)]);
    for (const Request& req : requests) {
      std::ostringstream line;
      line << R"({"schema":"pdw-req-1","type":"solve","id":"b)" << seq++
           << R"(","benchmark":)" << obs::json::quote(req.assay)
           << R"(,"deadline_ms":)" << req.deadline_ms << R"(,"cache":false})";
      const obs::MetricsSnapshot before =
          trace ? reg.snapshot() : obs::MetricsSnapshot{};
      const auto t0 = Clock::now();
      const std::string response = daemon->handleLine(line.str());
      const double ms = secondsSince(t0) * 1000.0;
      run.latency_ms.push_back(ms);

      const std::optional<obs::json::Value> doc = obs::json::parse(response);
      const auto number = [&](const char* key) {
        const obs::json::Value* v = doc ? doc->find(key) : nullptr;
        return v && v->isNumber() ? v->number : 0.0;
      };
      const obs::json::Value* status = doc ? doc->find("status") : nullptr;
      const std::string st = status && status->isString() ? status->string : "";
      const bool ok = st == "ok" || st == "budget_hit";
      run.gate.record(ok && number("n_wash") > 0,
                      req.assay + " @" + std::to_string(req.deadline_ms) +
                          " ms: response " + response.substr(0, 200));
      if (passes == 0 && ok) {
        run.n_wash += number("n_wash");
        run.l_wash_mm += number("l_wash_mm");
        run.t_assay_s += number("t_assay");
      }
      if (trace) {
        Layers& l = run.layers;
        const obs::MetricsSnapshot delta = reg.snapshot().since(before);
        l.ops += 1.0;
        l.addIlp(delta);
        l.addStages(delta);
        l.service_requests += 1.0;
        l.service_queue_ms += number("queue_ms");
        l.service_server_ms += number("wall_ms");
        l.service_overhead_ms += ms - number("wall_ms");
        l.service_budget_hits +=
            static_cast<double>(delta.counter(obs::names::kPdwdBudgetHits));
        l.service_deadline_expired += static_cast<double>(
            delta.counter(obs::names::kPdwdDeadlineExpired));
        l.deadline_ratios.push_back(ms / req.deadline_ms);
        l.deadline_misses += ms > req.deadline_ms + kDeadlineSlackMs ? 1.0 : 0.0;
        l.untraced_wall_s += ms / 1000.0;
        l.traced_wall_s += secondsSince(t0);
      }
    }
    ++passes;
  }
  daemon->shutdown();
  run.detail = "passes " + std::to_string(passes) +
               ", 1 client, 1 lane, 4-thread pool, deadlines 100/250 ms "
               "(Kinase act-2 at 250 ms only)";
}

// ---- reporting -------------------------------------------------------------------

std::vector<Metric> endToEnd(const RunResult& run) {
  return {
      {"latency_ms.p50", "ms", median(run.latency_ms)},
      {"latency_ms.p90", "ms", percentile(run.latency_ms, kTailPct)},
      {"n_wash", "count", run.n_wash},
      {"l_wash_mm", "mm", run.l_wash_mm},
      // Schedule time of the plans, not wall time: deterministic by design.
      {"t_assay", "sched_s", run.t_assay_s},
      {"setup_s", "s", median(run.setup_s)},
      {"peak_rss_mb", "MiB", peakRssMb()},
  };
}

std::vector<Metric> perLayer(const RunResult& run) {
  const Layers& l = run.layers;
  const double ops = l.ops;
  const auto per_op = [&](double v) { return ratio(v, ops); };
  const auto rel_err = [](double replay, double pipeline) {
    return pipeline < kReconcileFloorS ? 0.0
                                       : std::fabs(replay - pipeline) / pipeline;
  };
  return {
      {"synth.place_s", "s", l.place_s},
      {"synth.synthesize_s", "s", l.synthesize_s},
      {"wash.necessity_s", "s", per_op(l.necessity_s)},
      {"wash.targets", "count", per_op(l.targets)},
      {"wash.cluster_s", "s", per_op(l.cluster_s)},
      {"wash.operations", "count", per_op(l.operations)},
      {"wash.frontier_frac", "frac", ratio(l.frontier_cells, l.resolve_cells)},
      {"route.s", "s", per_op(l.route_s)},
      {"route.calls", "count", per_op(l.route_calls)},
      {"route.ilp_rounds", "count", per_op(l.ilp_rounds)},
      {"route.connectivity_cuts", "count", per_op(l.connectivity_cuts)},
      {"route.bfs_fallbacks", "count", per_op(l.bfs_fallbacks)},
      {"route.ilp_gain_mm", "mm", per_op(l.ilp_gain_mm)},
      {"route.ilp_win_frac", "frac", ratio(l.ilp_wins, l.gain_ops)},
      {"route_cache.hit_frac", "frac",
       ratio(l.cache_hits, l.cache_hits + l.cache_misses)},
      {"route_cache.misses", "count", per_op(l.cache_misses)},
      {"schedule.s", "s", per_op(l.schedule_s)},
      {"schedule.phase_b_gain", "objective", per_op(l.phase_b_gain)},
      {"schedule.order_binaries", "count", ratio(l.order_binaries, l.schedules)},
      {"schedule.proven_optimal_frac", "frac",
       ratio(l.proven_optimal, l.schedules)},
      {"schedule.greedy_fallback_frac", "frac",
       ratio(l.greedy_fallbacks, l.ops + l.greedy_fallbacks)},
      {"ilp.solves", "count", per_op(l.ilp_solves)},
      {"ilp.nodes", "count", per_op(l.ilp_nodes)},
      {"ilp.simplex_iterations", "count", per_op(l.ilp_iterations)},
      {"ilp.iterations_per_s", "1/s", ratio(l.ilp_iterations, l.ilp_seconds)},
      {"ilp.warm_hit_frac", "frac",
       ratio(l.ilp_warm_hits, l.ilp_warm_hits + l.ilp_warm_misses)},
      {"ilp.cuts_added", "count", per_op(l.ilp_cuts)},
      {"ilp.refactorizations", "count", per_op(l.ilp_refactorizations)},
      {"ilp.diver_nodes", "count", per_op(l.ilp_diver_nodes)},
      {"service.queue_ms", "ms", ratio(l.service_queue_ms, l.service_requests)},
      {"service.server_ms", "ms", ratio(l.service_server_ms, l.service_requests)},
      {"service.overhead_ms", "ms",
       ratio(l.service_overhead_ms, l.service_requests)},
      {"service.budget_hits", "count", l.service_budget_hits},
      {"service.deadline_expired", "count", l.service_deadline_expired},
      {"service.deadline_ratio_p50", "ratio", median(l.deadline_ratios)},
      {"service.deadline_ratio_p90", "ratio",
       percentile(l.deadline_ratios, kTailPct)},
      {"service.deadline_miss_frac", "frac",
       ratio(l.deadline_misses, l.service_requests)},
      {"pool.tasks_executed", "count", per_op(l.pool_executed)},
      {"pool.tasks_stolen", "count", per_op(l.pool_stolen)},
      {"sim.validate_s", "s", per_op(l.validate_s)},
      {"obs.trace_overhead_frac", "frac",
       ratio(l.traced_wall_s - l.untraced_wall_s, l.untraced_wall_s)},
      {"obs.replay_route_err", "frac",
       rel_err(l.replay_route_s, l.pipeline_route_s)},
      {"obs.replay_schedule_err", "frac",
       rel_err(l.replay_schedule_s, l.pipeline_schedule_s)},
  };
}

std::string formatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: pdw_perfbench --workload "
               "cold-small|cold-large|rewash|deadline --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value) != 0;
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads())
    if (workload == w.name) spec = &w;
  if (spec == nullptr || seconds <= 0.0) return usage();

  util::setLogLevel(util::LogLevel::Error);
  RunResult run;
  const std::string name = spec->name;
  if (name == "rewash") runRewash(*spec, seed, seconds, trace, run);
  else if (name == "deadline") runDeadline(*spec, seed, seconds, trace, run);
  else runCold(*spec, seed, seconds, trace, run);

  std::vector<Metric> metrics = trace ? perLayer(run) : endToEnd(run);
  if (trace) {
    // Replayed stage times must reconcile with the Pipeline::run timings.
    for (const Metric& m : metrics)
      if ((m.name == "obs.replay_route_err" ||
           m.name == "obs.replay_schedule_err") &&
          m.value > kReconcileBound)
        run.gate.record(false, m.name + " = " + formatNumber(m.value) +
                                   " exceeds " + formatNumber(kReconcileBound));
  }

  std::printf("workload %s seed %llu trace %d: %s\n", name.c_str(),
              static_cast<unsigned long long>(seed), trace ? 1 : 0,
              run.detail.c_str());
  std::printf("operations %zu, %zu of them above the p%.0f latency\n",
              run.latency_ms.size(), beyondTail(run.latency_ms), kTailPct);
  for (const Metric& m : metrics)
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("attempted %d failed %d\n", run.gate.attempted, run.gate.failed);

  std::ostringstream out;
  out << "{\"correct\": " << (run.gate.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max(run.gate.attempted, 1)
      << ", \"failed\": " << run.gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << obs::json::quote(metrics[i].name)
        << ": {\"value\": " << formatNumber(metrics[i].value)
        << ", \"unit\": " << obs::json::quote(metrics[i].unit) << "}";
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return run.gate.failed == 0 && run.gate.attempted > 0 ? 0 : 1;
}
