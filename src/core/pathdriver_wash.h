// PathDriver-Wash (PDW): the paper's primary contribution.
//
// Pipeline (paper §III):
//   1. contamination replay + wash-necessity analysis (Type 1/2/3,
//      eqs. 9-11) on the given base schedule,
//   2. clustering of wash targets into wash operations,
//   3. ILP wash-path routing per operation (eqs. 12-15 + connectivity cuts),
//   4. scheduling ILP with integration (eqs. 1-8, 16-26) — with a greedy
//      insertion fallback when the solver budget is exhausted (best-effort,
//      like the paper's 15-minute cap).
//
// Every stage is individually switchable for the ablation benches.
//
// This header holds the options; the pdw::Pipeline facade
// (core/pipeline.h) runs the stages, with the parallel routing runtime, the
// route cache, per-stage timings and solver statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/schedule_ilp.h"
#include "core/wash_path_ilp.h"
#include "wash/wash_op.h"

namespace pdw::util {
class ThreadPool;
}

namespace pdw::core {

class RouteCache;  // core/route_cache.h

/// The solver budgets of the pipeline's two ILP stages. Within
/// `PdwOptions`, this struct is the authoritative source — the Pipeline
/// facade copies `path` over `PdwOptions::path.solver` before routing, so
/// standalone `routeWashPathIlp(..., WashPathOptions)` use is unaffected.
/// Each stage's default budget lives with the stage: these start from
/// `ScheduleIlpOptions{}.solver` and `WashPathOptions{}.solver`, and
/// whatever a caller writes here is what the stage runs with.
struct SolverConfig {
  /// Scheduling-ILP budget (eqs. 1-8, 16-26): 8 s / 60000 nodes.
  ilp::SolveParams schedule = ScheduleIlpOptions{}.solver;

  /// Per-operation wash-path ILP budget (eqs. 12-15): 1.5 s / 8000 nodes.
  ilp::SolveParams path = WashPathOptions{}.solver;

  /// Scheduling-ILP budget: wall-clock seconds and, optionally, a
  /// branch-and-bound node cap (0 keeps the current cap).
  SolverConfig& withScheduleBudget(double seconds, std::int64_t nodes = 0) {
    schedule.time_limit_seconds = seconds;
    if (nodes > 0) schedule.node_limit = nodes;
    return *this;
  }

  /// Budget of each per-operation wash-path ILP.
  SolverConfig& withPathBudget(double seconds, std::int64_t nodes = 0) {
    path.time_limit_seconds = seconds;
    if (nodes > 0) path.node_limit = nodes;
    return *this;
  }

  /// Enable the solver flight recorder (obs/flight.h) in both ILP stages.
  /// Applies one FlightConfig to every branch-and-bound lane: events are
  /// recorded per lane and dumped as `pdw-flight-1` JSONL to
  /// `config.path` per the config's triggers.
  SolverConfig& withFlightRecording(obs::FlightConfig config) {
    config.enabled = true;
    schedule.flight = config;
    path.flight = std::move(config);
    return *this;
  }

  /// One-line description of both stages' budgets, stamped into
  /// `pdw-run-1` records (obs/runs.h) and the pdwd plan-cache key.
  std::string fingerprint() const {
    return "schedule{" + ilp::fingerprint(schedule) + "} path{" +
           ilp::fingerprint(path) + "}";
  }
};

/// One consolidated option block for the whole pipeline. The builder-style
/// `with*` setters below cover what the tools, examples and the service set
/// (threads, budgets, flight recording, the two ablation switches, shared
/// runtime); every other knob is a plain field, written directly by the
/// ablation benches and tests. DESIGN.md §8 documents the mapping.
struct PdwOptions {
  /// Objective weights of eq. 26 (paper §IV: 0.3 / 0.3 / 0.4).
  double alpha = 0.3;
  double beta = 0.3;
  double gamma = 0.4;

  wash::WashParams wash;
  wash::NecessityOptions necessity;
  wash::ClusterOptions cluster;
  WashPathOptions path;

  /// Route wash paths with the ILP (false: BFS heuristic — ablation).
  bool use_ilp_paths = true;
  /// Re-time with the scheduling ILP (false: greedy insertion — ablation).
  bool use_ilp_schedule = true;
  /// Integrate excess removals into washes (paper §II-B; ablation).
  bool enable_integration = true;

  /// Ordering-binary pruning horizon of the scheduling ILP (DESIGN.md §7).
  double order_horizon_s = 12.0;

  /// Per-stage solver budgets. Authoritative within the pipeline; see
  /// SolverConfig.
  SolverConfig solver;

  /// Execution lanes for the parallel runtime (per-operation wash-path
  /// routing; every other stage runs on the calling thread).
  /// 0 = hardware concurrency; 1 = fully sequential, reproducing the
  /// pre-runtime behavior bit-for-bit. Results are identical for every
  /// value — only wall-clock changes.
  int num_threads = 0;

  /// Memoize routing results across wash operations and across run() calls
  /// of one Pipeline (LRU, `route_cache_capacity` problems). 0 disables.
  std::size_t route_cache_capacity = 256;

  /// Shared-runtime injection (the pdwd service): when set, the Pipeline
  /// uses this route cache instead of constructing its own, so several
  /// concurrent Pipelines serve repeat traffic from one warm cache
  /// (`route_cache_capacity` is ignored). The cache is content-addressed
  /// and lookup/insert are thread-safe, so sharing never changes results.
  std::shared_ptr<RouteCache> shared_route_cache;

  /// When set, the Pipeline multiplexes its parallel stages onto this
  /// work-stealing pool instead of constructing one per instance.
  /// ThreadPool::parallelFor supports concurrent batches from distinct
  /// caller threads, so N Pipelines can share one pool — the pdwd daemon's
  /// execution model. Do not run() a *single* Pipeline from two threads.
  std::shared_ptr<util::ThreadPool> shared_pool;

  // ---- builder-style setters (each returns *this for chaining) ----------

  /// Runtime width; see num_threads.
  PdwOptions& withThreads(int threads) {
    num_threads = threads;
    return *this;
  }

  /// Scheduling-ILP budget (see SolverConfig::withScheduleBudget).
  PdwOptions& withScheduleBudget(double seconds, std::int64_t nodes = 0) {
    solver.withScheduleBudget(seconds, nodes);
    return *this;
  }

  /// Budget of each per-operation wash-path ILP.
  PdwOptions& withPathBudget(double seconds, std::int64_t nodes = 0) {
    solver.withPathBudget(seconds, nodes);
    return *this;
  }

  /// Enable the solver flight recorder in both ILP stages (see
  /// SolverConfig::withFlightRecording).
  PdwOptions& withFlightRecording(obs::FlightConfig config) {
    solver.withFlightRecording(std::move(config));
    return *this;
  }

  /// BFS heuristic wash paths instead of the path ILP.
  PdwOptions& withoutIlpPaths() {
    use_ilp_paths = false;
    return *this;
  }

  /// Greedy insertion instead of the scheduling ILP.
  PdwOptions& withoutIlpSchedule() {
    use_ilp_schedule = false;
    return *this;
  }

  /// Share an external route cache across Pipelines (see
  /// `shared_route_cache`). Passing nullptr reverts to a per-Pipeline cache.
  PdwOptions& withSharedRouteCache(std::shared_ptr<RouteCache> cache) {
    shared_route_cache = std::move(cache);
    return *this;
  }

  /// Share an external work-stealing pool across Pipelines (see
  /// `shared_pool`). Passing nullptr reverts to a per-Pipeline pool.
  PdwOptions& withSharedPool(std::shared_ptr<util::ThreadPool> pool) {
    shared_pool = std::move(pool);
    return *this;
  }
};

}  // namespace pdw::core
