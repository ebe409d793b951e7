#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/rescheduler.h"

namespace pdw {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Routing outcome of one wash operation (slot-per-index: workers write
/// only their own element, results merge in operation order). Per-call
/// routing stats live in the obs registry, not here.
struct RouteOutcome {
  std::optional<arch::FlowPath> path;
  bool cache_hit = false;
};

RouteOutcome routeOperation(const arch::ChipLayout& chip,
                            const std::vector<arch::Cell>& targets,
                            const core::PdwOptions& options,
                            core::RouteCache* cache) {
  RouteOutcome out;
  core::RouteKey key;
  if (cache != nullptr) {
    key = core::RouteCache::makeKey(chip, targets, options.use_ilp_paths,
                                    options.path);
    if (auto cached = cache->lookup(key)) {
      PDW_TRACE_INSTANT("routing", "cache_hit");
      out.path = std::move(*cached);
      out.cache_hit = true;
      return out;
    }
  }

  // A nullopt is final: the ILP router also runs the BFS heuristic.
  if (options.use_ilp_paths) {
    out.path = core::routeWashPathIlp(chip, targets, options.path);
  } else {
    out.path = core::routeWashPathHeuristic(chip, targets,
                                            options.path.avoid_cells);
  }
  if (cache != nullptr) cache->insert(key, out.path);
  return out;
}

/// Fold the per-run registry delta into the result: the metrics snapshot
/// itself, the path_* solver stats (views over pdw.path_ilp.*), and the
/// per-stage duration histograms.
void finalizeMetrics(PdwResult& result,
                     const obs::MetricsSnapshot& baseline) {
  obs::Registry& reg = obs::Registry::instance();
  static obs::Histogram& analysis_h =
      reg.histogram(obs::names::kStageAnalysisSeconds);
  static obs::Histogram& clustering_h =
      reg.histogram(obs::names::kStageClusteringSeconds);
  static obs::Histogram& routing_h =
      reg.histogram(obs::names::kStageRoutingSeconds);
  static obs::Histogram& scheduling_h =
      reg.histogram(obs::names::kStageSchedulingSeconds);
  analysis_h.observe(result.timings.analysis_s);
  clustering_h.observe(result.timings.clustering_s);
  routing_h.observe(result.timings.routing_s);
  scheduling_h.observe(result.timings.scheduling_s);

  result.metrics = reg.snapshot().since(baseline);
  result.solver.path_ilp_solves =
      static_cast<int>(result.metrics.counter(obs::names::kPathIlpSolves));
  result.solver.path_connectivity_cuts = static_cast<int>(
      result.metrics.counter(obs::names::kPathIlpConnectivityCuts));
  result.solver.path_fallbacks =
      static_cast<int>(result.metrics.counter(obs::names::kPathIlpFallbacks));
  result.solver.path_warm_hits =
      static_cast<int>(result.metrics.counter(obs::names::kPathIlpWarmHits));
}

}  // namespace

/// Everything resolve() needs from the previous solve: the base schedule it
/// was (re)based on and the blocked cells accumulated from earlier deltas.
/// run() re-primes it from scratch; every successful resolve() re-bases it
/// on the perturbed schedule, so deltas compose.
struct Pipeline::ResolveState {
  assay::AssaySchedule base;
  std::vector<arch::Cell> blocked;  ///< sorted, deduplicated
  bool primed = false;
};

Pipeline::Pipeline(core::PdwOptions options) : options_(std::move(options)) {
  obs::setThreadName("pdw-main");
  if (options_.num_threads <= 0)
    options_.num_threads = util::ThreadPool::hardwareConcurrency();

  // SolverConfig is the authoritative source of the wash-path solver knobs;
  // the copy keeps routeOperation's WashPathOptions (and the route-cache
  // key, which hashes them) in sync with it.
  options_.path.solver = options_.solver.path;

  // Shared-runtime injection (pdwd): an externally-owned pool/cache wins
  // over per-instance construction, so N concurrent Pipelines multiplex one
  // work-stealing pool and serve repeat traffic from one warm route cache.
  if (options_.shared_pool) {
    pool_ = options_.shared_pool;
  } else {
    pool_ = std::make_shared<util::ThreadPool>(options_.num_threads);
  }
  if (options_.shared_route_cache) {
    cache_ = options_.shared_route_cache;
  } else if (options_.route_cache_capacity > 0) {
    cache_ = std::make_shared<core::RouteCache>(options_.route_cache_capacity);
  }
}

Pipeline::~Pipeline() = default;

core::RouteCacheStats Pipeline::cacheStats() const {
  return cache_ ? cache_->stats() : core::RouteCacheStats{};
}

PdwResult Pipeline::execute(const assay::AssaySchedule& base, bool repair,
                            const wash::ReleaseTimes& release) {
  const auto run_start = Clock::now();
  PDW_TRACE_SPAN("pipeline", repair ? "resolve" : "run");
  obs::Registry& reg = obs::Registry::instance();
  const obs::MetricsSnapshot metrics_before = reg.snapshot();
  PdwResult result;
  result.plan.method = "PDW";
  result.threads = pool_->size();
  const core::RouteCacheStats cache_before = cacheStats();

  // Delta-blocked cells join any caller-configured avoidance for this
  // solve's routing (and its route-cache keys).
  core::PdwOptions solve_options = options_;
  if (resolve_state_ && !resolve_state_->blocked.empty()) {
    auto& avoid = solve_options.path.avoid_cells;
    avoid.insert(avoid.end(), resolve_state_->blocked.begin(),
                 resolve_state_->blocked.end());
    std::sort(avoid.begin(), avoid.end());
    avoid.erase(std::unique(avoid.begin(), avoid.end()), avoid.end());
  }

  // 1. Contamination replay + necessity analysis (eqs. 9-11).
  auto stage_start = Clock::now();
  wash::NecessityResult necessity;
  {
    PDW_TRACE_SPAN("pipeline", "necessity_analysis");
    const wash::ContaminationTracker tracker(base);
    necessity = analyzeWashNecessity(tracker, options_.necessity);
    if (repair)
      result.resolve.frontier_cells =
          static_cast<int>(tracker.usedCells().size());
  }
  result.plan.necessity = necessity.stats;
  reg.counter(obs::names::kNecessityTargets).add(necessity.stats.targets);
  reg.counter(obs::names::kNecessitySkippedType1)
      .add(necessity.stats.skipped_type1);
  reg.counter(obs::names::kNecessitySkippedType2)
      .add(necessity.stats.skipped_type2);
  reg.counter(obs::names::kNecessitySkippedType3)
      .add(necessity.stats.skipped_type3);
  result.timings.analysis_s = secondsSince(stage_start);

  // A target on an avoided cell (a blocked valve) cannot be washed. Drop it
  // before clustering, so the operation it would have joined still washes
  // its other targets.
  const std::vector<arch::Cell>& avoid = solve_options.path.avoid_cells;
  const auto unwashable = std::remove_if(
      necessity.targets.begin(), necessity.targets.end(),
      [&](const wash::WashTarget& t) {
        return std::find(avoid.begin(), avoid.end(), t.cell) != avoid.end();
      });
  if (unwashable != necessity.targets.end()) {
    PDW_LOG(Error, "pdw") << "wash targets on avoided cells; dropping "
                          << (necessity.targets.end() - unwashable)
                          << " targets";
    necessity.targets.erase(unwashable, necessity.targets.end());
  }

  if (necessity.targets.empty()) {
    result.plan.schedule = base;
    result.plan.proven_optimal = true;
    result.timings.total_s = secondsSince(run_start);
    result.plan.solve_seconds = result.timings.total_s;
    finalizeMetrics(result, metrics_before);
    return result;
  }

  // 2. Cluster targets into wash operations.
  stage_start = Clock::now();
  std::vector<wash::WashOperation> washes;
  {
    PDW_TRACE_SPAN("pipeline", "clustering");
    washes = clusterTargets(std::move(necessity.targets), options_.cluster);
  }
  result.wash_operations = static_cast<int>(washes.size());
  reg.counter(obs::names::kClusterOperations).add(result.wash_operations);
  result.timings.clustering_s = secondsSince(stage_start);

  // 3. Route a wash path per operation (eqs. 12-15), in parallel: the
  // routing problems are independent, each worker fills its own slot, and
  // the merge below walks slots in operation order — so the plan is the
  // same for any thread count.
  stage_start = Clock::now();
  std::vector<RouteOutcome> outcomes(washes.size());
  std::vector<std::vector<arch::Cell>> target_cells(washes.size());
  for (std::size_t i = 0; i < washes.size(); ++i)
    target_cells[i] = washes[i].targetCells();
  {
    PDW_TRACE_SPAN("pipeline", "routing");
    pool_->parallelFor(washes.size(), [&](std::size_t i) {
      PDW_TRACE_SPAN_ID("routing", "wash_op", i);
      outcomes[i] = routeOperation(base.chip(), target_cells[i], solve_options,
                                   cache_.get());
    });
  }
  for (std::size_t i = 0; i < washes.size(); ++i) {
    const RouteOutcome& out = outcomes[i];
    PDW_LOG(Debug, "pdw") << "wash path ("
                          << (out.path ? static_cast<int>(out.path->size())
                                       : -1)
                          << " cells) for " << washes[i].targets.size()
                          << " targets"
                          << (out.cache_hit ? " [cache]" : "");
    if (out.path) washes[i].path = *out.path;
  }
  // Drop unroutable operations only if truly unreachable (logged loudly:
  // this indicates a malformed chip).
  std::vector<wash::WashOperation> routed;
  for (wash::WashOperation& w : washes) {
    if (w.path.empty()) {
      PDW_LOG(Error, "pdw") << "wash operation unroutable; dropping "
                            << w.targets.size() << " targets";
      ++result.unroutable_operations;
      continue;
    }
    routed.push_back(std::move(w));
  }
  if (result.unroutable_operations > 0)
    reg.counter(obs::names::kRoutingUnroutableOperations)
        .add(result.unroutable_operations);
  result.timings.routing_s = secondsSince(stage_start);

  // 4. Re-time everything with the scheduling ILP (eqs. 1-8, 16-26).
  stage_start = Clock::now();
  {
  PDW_TRACE_SPAN("pipeline", "scheduling");
  bool scheduled = false;
  if (options_.use_ilp_schedule) {
    core::ScheduleIlpOptions ilp_options;
    ilp_options.alpha = options_.alpha;
    ilp_options.beta = options_.beta;
    ilp_options.gamma = options_.gamma;
    ilp_options.wash = options_.wash;
    ilp_options.order_horizon_s = options_.order_horizon_s;
    ilp_options.enable_integration = options_.enable_integration;
    ilp_options.solver = options_.solver.schedule;
    ilp_options.repair_mode = repair;
    core::ScheduleIlpResult ilp =
        solveWashSchedule(base, routed, ilp_options, release);
    result.solver.schedule = ilp.stats;
    result.solver.schedule_ilp_success = ilp.success;
    result.solver.schedule_budget_hit = ilp.budget_hit;
    if (ilp.success) {
      result.plan.schedule = std::move(ilp.schedule);
      result.plan.integrated_removals = ilp.integrated_removals;
      result.plan.proven_optimal = ilp.proven_optimal;
      scheduled = true;
    } else {
      PDW_LOG(Warn, "pdw")
          << "scheduling ILP returned no incumbent within its budget; "
             "falling back to greedy insertion";
    }
  }
  if (!scheduled) {
    result.solver.schedule_greedy_fallback = true;
    reg.counter(obs::names::kScheduleIlpGreedyFallbacks).increment();
    result.plan.schedule =
        wash::rescheduleWithWashes(base, routed, options_.wash, release);
  }
  }
  result.timings.scheduling_s = secondsSince(stage_start);

  result.timings.total_s = secondsSince(run_start);
  result.plan.solve_seconds = result.timings.total_s;

  const core::RouteCacheStats cache_after = cacheStats();
  result.cache.hits = cache_after.hits - cache_before.hits;
  result.cache.misses = cache_after.misses - cache_before.misses;
  result.cache.inserts = cache_after.inserts - cache_before.inserts;
  result.cache.evictions = cache_after.evictions - cache_before.evictions;

  finalizeMetrics(result, metrics_before);
  return result;
}

PdwResult Pipeline::run(const assay::AssaySchedule& base) {
  if (!resolve_state_) resolve_state_ = std::make_unique<ResolveState>();
  // Fresh priming: forget blocked cells from earlier deltas.
  resolve_state_->blocked.clear();
  resolve_state_->primed = false;
  PdwResult result = execute(base, /*repair=*/false);
  resolve_state_->base = base;
  resolve_state_->primed = true;
  return result;
}

bool Pipeline::canResolve() const {
  return resolve_state_ != nullptr && resolve_state_->primed;
}

PdwResult Pipeline::resolve(const core::ScheduleDelta& delta) {
  const auto t0 = Clock::now();
  obs::Registry& reg = obs::Registry::instance();
  reg.counter(obs::names::kResolveRequests).increment();

  auto reject = [&](std::string error) {
    reg.counter(obs::names::kResolveErrors).increment();
    PDW_LOG(Warn, "pdw") << "resolve rejected: " << error;
    PdwResult result;
    result.resolve.attempted = true;
    result.resolve.valid = false;
    result.resolve.error = std::move(error);
    return result;
  };

  if (!canResolve())
    return reject("resolve() requires a prior successful run()");

  core::AppliedDelta applied = core::applyDelta(resolve_state_->base, delta);
  if (!applied.valid) return reject(std::move(applied.error));

  // Commit the delta's blocked cells (they persist across later resolves,
  // like the re-based schedule does).
  if (!delta.blocked_cells.empty()) {
    auto& blocked = resolve_state_->blocked;
    blocked.insert(blocked.end(), delta.blocked_cells.begin(),
                   delta.blocked_cells.end());
    std::sort(blocked.begin(), blocked.end());
    blocked.erase(std::unique(blocked.begin(), blocked.end()), blocked.end());
  }

  PdwResult result =
      execute(applied.schedule, /*repair=*/true, applied.release);
  result.resolve.attempted = true;
  result.resolve.valid = true;

  // Re-base: later deltas apply on top of the perturbed schedule.
  resolve_state_->base = std::move(applied.schedule);
  reg.histogram(obs::names::kResolveSeconds).observe(secondsSince(t0));
  return result;
}

}  // namespace pdw
