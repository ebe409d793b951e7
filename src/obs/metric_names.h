// Canonical metric names (DESIGN.md §10.2).
//
// Every `ilp.*` / `pdw.*` / `pool.*` registry name lives here as a single
// constant, so instrumented call sites (branch_bound.cpp, simplex.cpp, the
// pipeline stages, the thread pool), the flight recorder's reconciliation
// mapping, the benches and tools/obs_check all spell one literal — a typo'd
// or drifted name is a compile error at the call site instead of a silently
// always-zero reading. Plain `constexpr const char*` so the constants cost
// nothing and stay usable in function-local statics.
#pragma once

namespace pdw::obs::names {

// ---- wash pipeline (pdw.*) ----------------------------------------------
inline constexpr const char* kNecessityTargets = "pdw.necessity.targets";
inline constexpr const char* kNecessitySkippedType1 =
    "pdw.necessity.skipped_type1";
inline constexpr const char* kNecessitySkippedType2 =
    "pdw.necessity.skipped_type2";
inline constexpr const char* kNecessitySkippedType3 =
    "pdw.necessity.skipped_type3";
inline constexpr const char* kClusterOperations = "pdw.cluster.operations";
inline constexpr const char* kPathIlpSolves = "pdw.path_ilp.solves";
inline constexpr const char* kPathIlpConnectivityCuts =
    "pdw.path_ilp.connectivity_cuts";
inline constexpr const char* kPathIlpFallbacks = "pdw.path_ilp.fallbacks";
inline constexpr const char* kPathIlpWarmHits = "pdw.path_ilp.warm_hits";
inline constexpr const char* kPathIlpHeuristicPaths =
    "pdw.path_ilp.heuristic_paths";
inline constexpr const char* kPathBfsRoutes = "pdw.path_bfs.routes";
inline constexpr const char* kRouteCacheHits = "pdw.route_cache.hits";
inline constexpr const char* kRouteCacheMisses = "pdw.route_cache.misses";
inline constexpr const char* kRouteCacheInserts = "pdw.route_cache.inserts";
inline constexpr const char* kRouteCacheEvictions =
    "pdw.route_cache.evictions";
inline constexpr const char* kRoutingUnroutableOperations =
    "pdw.routing.unroutable_operations";
inline constexpr const char* kScheduleIlpOrderBinaries =
    "pdw.schedule_ilp.order_binaries";
inline constexpr const char* kScheduleIlpPsiVars =
    "pdw.schedule_ilp.psi_vars";
inline constexpr const char* kScheduleIlpGreedyFallbacks =
    "pdw.schedule_ilp.greedy_fallbacks";
// The order search after phase A (core/order_search.h): fixed orders scored
// by a longest-path pass, and accepted 1- and 2-flips.
inline constexpr const char* kScheduleIlpOrderTrials =
    "pdw.schedule_ilp.order_trials";
inline constexpr const char* kScheduleIlpOrderFlips =
    "pdw.schedule_ilp.order_flips";
// Re-wash (Pipeline::resolve), reconciled by tools/obs_check --resolve:
// errors counts rejected deltas (they bump requests too), and the seconds
// histogram observes each successful resolve once (requests - errors).
inline constexpr const char* kResolveRequests = "pdw.resolve.requests";
inline constexpr const char* kResolveErrors = "pdw.resolve.errors";
inline constexpr const char* kResolveSeconds = "pdw.resolve.seconds";
inline constexpr const char* kStageAnalysisSeconds =
    "pdw.stage.analysis_seconds";
inline constexpr const char* kStageClusteringSeconds =
    "pdw.stage.clustering_seconds";
inline constexpr const char* kStageRoutingSeconds =
    "pdw.stage.routing_seconds";
inline constexpr const char* kStageSchedulingSeconds =
    "pdw.stage.scheduling_seconds";

// ---- MILP solver (ilp.*) -------------------------------------------------
inline constexpr const char* kBbSolves = "ilp.bb.solves";
inline constexpr const char* kBbNodes = "ilp.bb.nodes";
/// Never incremented; kept only so perfbench/pdw_perfbench.cpp still builds.
inline constexpr const char* kBbDiverNodes = "ilp.bb.diver_nodes";
inline constexpr const char* kBbRcFixed = "ilp.bb.rc_fixed";
inline constexpr const char* kSimplexCalls = "ilp.simplex.calls";
inline constexpr const char* kSimplexIterations = "ilp.simplex.iterations";
inline constexpr const char* kSimplexWarmHits = "ilp.simplex.warm_hits";
inline constexpr const char* kSimplexWarmMisses = "ilp.simplex.warm_misses";
inline constexpr const char* kSimplexDualPivots = "ilp.simplex.dual_pivots";
inline constexpr const char* kSimplexRefactorizations =
    "ilp.simplex.refactorizations";
inline constexpr const char* kSimplexPivotsPerNode =
    "ilp.simplex.pivots_per_node";
/// Never incremented; kept only so perfbench/pdw_perfbench.cpp still builds.
inline constexpr const char* kCutsAdded = "ilp.cuts.added";
inline constexpr const char* kSolveSeconds = "ilp.solve_seconds";

// ---- wash-optimization service (pdwd.*) ---------------------------------
// Daemon request accounting. `pdwd.requests` counts every parsed protocol
// line (solves, scrapes, pings); the outcome counters partition the solve
// requests: every admitted solve ends as exactly one of solve_ok /
// budget_hits / deadline_expired, and rejected_queue_full counts solves
// never admitted. errors counts malformed/oversize/unparseable lines.
inline constexpr const char* kPdwdRequests = "pdwd.requests";
inline constexpr const char* kPdwdSolveOk = "pdwd.solve_ok";
inline constexpr const char* kPdwdBudgetHits = "pdwd.budget_hits";
inline constexpr const char* kPdwdDeadlineExpired = "pdwd.deadline_expired";
inline constexpr const char* kPdwdRejectedQueueFull =
    "pdwd.rejected_queue_full";
inline constexpr const char* kPdwdErrors = "pdwd.errors";
inline constexpr const char* kPdwdPlanCacheHits = "pdwd.plan_cache.hits";
inline constexpr const char* kPdwdPlanCacheMisses = "pdwd.plan_cache.misses";
inline constexpr const char* kPdwdQueueDepth = "pdwd.queue_depth";
inline constexpr const char* kPdwdRequestSeconds = "pdwd.request_seconds";
inline constexpr const char* kPdwdQueueWaitSeconds =
    "pdwd.queue_wait_seconds";
inline constexpr const char* kPdwdSlowRequests = "pdwd.slow_requests";

// ---- parallel runtime (pool.*) ------------------------------------------
inline constexpr const char* kPoolTasksExecuted = "pool.tasks_executed";
inline constexpr const char* kPoolTasksStolen = "pool.tasks_stolen";
inline constexpr const char* kPoolQueueDepth = "pool.queue_depth";

}  // namespace pdw::obs::names
