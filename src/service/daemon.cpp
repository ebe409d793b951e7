#include "service/daemon.h"

#include <algorithm>
#include <future>
#include <utility>

#include "assay/benchmarks.h"
#include "core/pipeline.h"
#include "core/route_cache.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/synthesizer.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pdw::service {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

obs::Counter& counterOf(const char* name) {
  return obs::Registry::instance().counter(name);
}

/// The Pipeline options of both request paths: the shared pool, the
/// daemon's node caps and flight recorder, and the given budgets.
core::PdwOptions pipelineOptions(const DaemonOptions& daemon,
                                 std::shared_ptr<util::ThreadPool> pool,
                                 double budget_s, double path_budget_s) {
  core::PdwOptions options;
  options.withThreads(pool->size())
      .withScheduleBudget(budget_s, daemon.default_budget_nodes)
      .withPathBudget(path_budget_s, daemon.path_budget_nodes)
      .withSharedPool(std::move(pool));
  if (daemon.flight.enabled || !daemon.flight.path.empty())
    options.withFlightRecording(daemon.flight);
  return options;
}

}  // namespace

/// Lazily-built synthesis context of one Table-II benchmark. The graph must
/// outlive the schedule (which points into it and into the chip), so the
/// whole bundle is kept alive for the daemon lifetime and shared read-only
/// by every request for that benchmark.
struct Daemon::BenchContext {
  assay::Benchmark benchmark;  ///< owns the sequencing graph
  synth::SynthResult synth;    ///< owns the chip; schedule points into both
  std::uint64_t chip_fingerprint = 0;
  std::uint64_t schedule_fingerprint = 0;
};

/// Resident pipeline of one benchmark (resolve requests). The pipeline
/// carries the solved-base state deltas compose on, so all resolve traffic
/// for a benchmark serializes on `mutex` — the point of resolve is that each
/// request is a cheap phase-A re-solve, not a parallel cold solve.
struct Daemon::ResolveContext {
  std::mutex mutex;
  std::unique_ptr<Pipeline> pipeline;  ///< created + primed on first use
};

/// One admitted solve request in flight between handleLine() (the waiting
/// transport thread) and a lane.
struct Daemon::Job {
  Request req;
  Clock::time_point admitted;
  std::string trace;
  std::uint64_t seq = 0;  ///< numeric part of `trace`, for span ids
  std::promise<SolveReply> done;
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      plan_cache_(std::max<std::size_t>(1, options_.plan_cache_capacity)) {
  options_.lanes = std::max(1, options_.lanes);
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  pool_ = std::make_shared<util::ThreadPool>(
      options_.threads > 0 ? options_.threads
                           : util::ThreadPool::hardwareConcurrency());
  route_cache_ = std::make_shared<core::RouteCache>(
      std::max<std::size_t>(1, options_.route_cache_capacity));
  lanes_.reserve(static_cast<std::size_t>(options_.lanes));
  for (int i = 0; i < options_.lanes; ++i)
    lanes_.emplace_back([this] { laneLoop(); });
  PDW_LOG(Info, "pdwd") << "daemon up: " << options_.lanes << " lanes, queue "
                        << options_.queue_capacity << ", pool "
                        << pool_->size();
}

Daemon::~Daemon() { shutdown(); }

std::string Daemon::handleLine(std::string_view line) {
  ParsedRequest parsed = parseRequest(line);
  if (!parsed.ok()) {
    counterOf(obs::names::kPdwdErrors).increment();
    return errorResponse("", parsed.error_code, parsed.error);
  }
  counterOf(obs::names::kPdwdRequests).increment();
  Request req = std::move(*parsed.request);
  const std::uint64_t seq =
      trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string trace = "t-" + std::to_string(seq);

  switch (req.type) {
    case RequestType::Ping:
      return ackResponse(RequestType::Ping, req.id, trace);
    case RequestType::Metrics:
      return metricsResponse(req.id, trace,
                             obs::Registry::instance().exportJson());
    case RequestType::Shutdown: {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        shutdown_requested_ = true;
      }
      return ackResponse(RequestType::Shutdown, req.id, trace);
    }
    case RequestType::Solve:
    case RequestType::Resolve:
      break;  // both go through admission below
  }

  // Unknown benchmarks are refused at admission so the outcome counters
  // keep their partition invariant (every *admitted* solve ends as ok /
  // budget_hit / deadline).
  if (!req.benchmark.empty()) {
    bool known = false;
    for (assay::BenchmarkId candidate : assay::allBenchmarks())
      if (req.benchmark == assay::toString(candidate)) known = true;
    if (!known) {
      counterOf(obs::names::kPdwdErrors).increment();
      return errorResponse(req.id, "value",
                           "unknown benchmark \"" + req.benchmark + "\"");
    }
  }

  Job job;
  job.req = std::move(req);
  job.admitted = Clock::now();
  job.trace = trace;
  job.seq = seq;
  std::future<SolveReply> done = job.done.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ || shutdown_requested_ || queue_.size() >=
                                                options_.queue_capacity) {
      counterOf(obs::names::kPdwdRejectedQueueFull).increment();
      SolveReply reply;
      reply.status = "rejected";
      return solveResponse(job.req.id, trace, reply);
    }
    queue_.push_back(&job);
    obs::Registry::instance()
        .gauge(obs::names::kPdwdQueueDepth)
        .set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();

  SolveReply reply = done.get();
  reply.wall_ms = secondsSince(job.admitted) * 1000.0;

  obs::Registry::instance()
      .histogram(obs::names::kPdwdRequestSeconds)
      .observe(reply.wall_ms / 1000.0);
  if (reply.wall_ms / 1000.0 > options_.slow_request_seconds) {
    counterOf(obs::names::kPdwdSlowRequests).increment();
    PDW_LOG(Warn, "pdwd") << "slow request " << trace << " id=\""
                          << job.req.id << "\" benchmark=\""
                          << job.req.benchmark << "\" status="
                          << reply.status << " wall=" << reply.wall_ms
                          << "ms queue=" << reply.queue_ms << "ms";
  }
  return solveResponse(job.req.id, trace, reply);
}

void Daemon::laneLoop() {
  obs::setThreadName("pdwd-lane");
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-before-exit: stopping_ alone never abandons admitted work.
      if (queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
      obs::Registry::instance()
          .gauge(obs::names::kPdwdQueueDepth)
          .set(static_cast<double>(queue_.size()));
    }
    runJob(*job);
  }
}

void Daemon::runJob(Job& job) {
  const double queue_s = secondsSince(job.admitted);
  obs::Registry::instance()
      .histogram(obs::names::kPdwdQueueWaitSeconds)
      .observe(queue_s);
  PDW_TRACE_SPAN_ID("pdwd", "request", static_cast<long long>(job.seq));

  SolveReply reply;
  reply.queue_ms = queue_s * 1000.0;

  double remaining_s = -1.0;  // < 0: no deadline
  if (job.req.deadline_ms > 0.0) {
    remaining_s = job.req.deadline_ms / 1000.0 - queue_s;
    if (remaining_s <= 0.0) {
      counterOf(obs::names::kPdwdDeadlineExpired).increment();
      reply.status = "deadline";
      job.done.set_value(std::move(reply));
      return;
    }
  }

  if (job.req.sleep_ms > 0.0) {
    // Load-harness path: hold the lane without touching the solver.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(job.req.sleep_ms, remaining_s < 0.0
                                       ? job.req.sleep_ms
                                       : remaining_s * 1000.0)));
    counterOf(obs::names::kPdwdSolveOk).increment();
    reply.status = "ok";
    job.done.set_value(std::move(reply));
    return;
  }

  std::string error;
  SolveReply solved = job.req.type == RequestType::Resolve
                          ? resolveRequest(job.req, &error)
                          : solveRequest(job.req, remaining_s, &error);
  solved.queue_ms = reply.queue_ms;
  if (!error.empty()) {
    counterOf(obs::names::kPdwdErrors).increment();
    solved.status = "error";
    solved.code = "value";
    solved.error = error;
    PDW_LOG(Warn, "pdwd") << "request " << job.trace << " failed: " << error;
  } else if (solved.status == "ok") {
    counterOf(obs::names::kPdwdSolveOk).increment();
  } else {
    counterOf(obs::names::kPdwdBudgetHits).increment();
  }
  job.done.set_value(std::move(solved));
}

SolveReply Daemon::solveRequest(const Request& req, double remaining_s,
                                std::string* error) {
  SolveReply reply;
  std::shared_ptr<BenchContext> ctx = benchContext(req.benchmark, error);
  if (!ctx) return reply;

  // Resolve the effective solver configuration: request overrides, daemon
  // defaults, and the remaining deadline as a hard cap on both stages.
  double budget_s =
      req.budget_s > 0.0 ? req.budget_s : options_.default_budget_s;
  double path_budget_s = options_.path_budget_s;
  // When the remaining deadline caps a budget, the solver config absorbs a
  // measured wall-clock value — a near-unique fingerprint that would
  // pollute both caches' key spaces (never warm-hitting, LRU-evicting
  // useful entries) and could memoize a deadline-truncated result. Such
  // requests bypass the plan cache and route through a route cache of
  // their own, as with "cache":false; the deadline still binds.
  bool deadline_capped = false;
  if (remaining_s >= 0.0) {
    if (remaining_s < budget_s) {
      budget_s = remaining_s;
      deadline_capped = true;
    }
    if (remaining_s < path_budget_s) {
      path_budget_s = remaining_s;
      deadline_capped = true;
    }
  }

  const bool use_cache = req.use_cache && !deadline_capped;
  core::PdwOptions options =
      pipelineOptions(options_, pool_, budget_s, path_budget_s);
  if (use_cache) options.withSharedRouteCache(route_cache_);

  PlanKey key;
  key.chip_fingerprint = ctx->chip_fingerprint;
  key.schedule_fingerprint = ctx->schedule_fingerprint;
  const std::string config = options.solver.fingerprint();
  key.config_fingerprint =
      util::hash::combineBytes(0x70647764u /* 'pdwd' */, config.data(),
                               config.size());

  if (use_cache) {
    if (std::optional<CachedPlan> cached = plan_cache_.lookup(key)) {
      reply.status = cached->status;
      reply.warm = true;
      reply.n_wash = cached->n_wash;
      reply.l_wash_mm = cached->l_wash_mm;
      reply.t_assay = cached->t_assay;
      reply.wash_time_s = cached->wash_time_s;
      reply.proven_optimal = cached->proven_optimal;
      reply.plan = cached->plan;
      return reply;
    }
  }

  Pipeline pipeline(options);
  PdwResult result = pipeline.run(ctx->synth.schedule);

  const assay::AssaySchedule& schedule = result.schedule();
  reply.status = result.solver.schedule_budget_hit ? "budget_hit" : "ok";
  reply.n_wash = schedule.washCount();
  reply.l_wash_mm = schedule.washLengthMm();
  reply.t_assay = schedule.completionTime();
  reply.wash_time_s = schedule.totalWashTime();
  reply.proven_optimal = result.plan.proven_optimal;
  reply.plan = canonicalPlan(schedule);

  if (use_cache) {
    CachedPlan cached;
    cached.status = reply.status;
    cached.n_wash = reply.n_wash;
    cached.l_wash_mm = reply.l_wash_mm;
    cached.t_assay = reply.t_assay;
    cached.wash_time_s = reply.wash_time_s;
    cached.proven_optimal = reply.proven_optimal;
    cached.plan = reply.plan;
    plan_cache_.insert(key, std::move(cached));
  }
  return reply;
}

SolveReply Daemon::resolveRequest(const Request& req, std::string* error) {
  SolveReply reply;
  std::shared_ptr<BenchContext> ctx = benchContext(req.benchmark, error);
  if (!ctx) return reply;

  core::ScheduleDelta delta;
  if (req.delay_op >= 0)
    delta.op_delays.push_back({req.delay_op, req.delay_s});
  if (req.delay_task >= 0)
    delta.task_delays.push_back({req.delay_task, req.delay_s});
  if (!req.block_cell.empty()) {
    int x = 0, y = 0;
    parseCellSpec(req.block_cell, &x, &y);  // format validated at parse
    delta.blocked_cells.push_back(arch::Cell{x, y});
  }
  if (req.remove_task >= 0) delta.removed_tasks.push_back(req.remove_task);

  std::shared_ptr<ResolveContext> rc;
  {
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    std::shared_ptr<ResolveContext>& slot = resolve_[req.benchmark];
    if (!slot) slot = std::make_shared<ResolveContext>();
    rc = slot;
  }

  std::lock_guard<std::mutex> lock(rc->mutex);
  const bool warm = rc->pipeline && rc->pipeline->canResolve();
  if (!rc->pipeline) {
    // Resident pipelines run with the daemon defaults: per-request budget
    // overrides would fork the resident solved-base state the deltas
    // compose on.
    core::PdwOptions options =
        pipelineOptions(options_, pool_, options_.default_budget_s,
                        options_.path_budget_s);
    options.withSharedRouteCache(route_cache_);
    rc->pipeline = std::make_unique<Pipeline>(std::move(options));
  }
  // Cold prime on first use: the pipeline must have solved the benchmark's
  // base schedule once before deltas can repair it.
  if (!rc->pipeline->canResolve()) rc->pipeline->run(ctx->synth.schedule);

  PdwResult result = rc->pipeline->resolve(delta);
  if (!result.resolve.valid) {
    *error = result.resolve.error;
    return reply;
  }

  const assay::AssaySchedule& schedule = result.schedule();
  reply.status = result.solver.schedule_budget_hit ? "budget_hit" : "ok";
  reply.warm = warm;
  reply.n_wash = schedule.washCount();
  reply.l_wash_mm = schedule.washLengthMm();
  reply.t_assay = schedule.completionTime();
  reply.wash_time_s = schedule.totalWashTime();
  reply.proven_optimal = result.plan.proven_optimal;
  reply.plan = canonicalPlan(schedule);
  return reply;
}

std::shared_ptr<Daemon::BenchContext> Daemon::benchContext(
    const std::string& name, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(bench_mutex_);
    const auto it = bench_.find(name);
    if (it != bench_.end()) return it->second;
  }

  std::optional<assay::BenchmarkId> id;
  for (assay::BenchmarkId candidate : assay::allBenchmarks())
    if (name == assay::toString(candidate)) id = candidate;
  if (!id) {
    *error = "unknown benchmark \"" + name + "\"";
    return nullptr;
  }

  // Built outside the lock: synthesis is deterministic, so a racing double
  // build produces identical contexts and first-emplace wins.
  auto ctx = std::make_shared<BenchContext>();
  ctx->benchmark = assay::makeBenchmark(*id);
  ctx->synth = synth::synthesize(*ctx->benchmark.graph);
  ctx->chip_fingerprint = core::chipFingerprint(*ctx->synth.chip);
  ctx->schedule_fingerprint = scheduleFingerprint(ctx->synth.schedule);

  std::lock_guard<std::mutex> lock(bench_mutex_);
  const auto [it, inserted] = bench_.emplace(name, std::move(ctx));
  return it->second;
}

bool Daemon::shutdownRequested() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return shutdown_requested_;
}

void Daemon::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && lanes_.empty()) return;
    stopping_ = true;
    shutdown_requested_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& lane : lanes_)
    if (lane.joinable()) lane.join();
  lanes_.clear();
  PDW_LOG(Info, "pdwd") << "daemon down";
}

}  // namespace pdw::service
