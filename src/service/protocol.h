// pdwd wire protocol: JSON-lines over a local socket (or stdio).
//
// Requests are one `pdw-req-1` JSON object per line, responses one
// `pdw-resp-1` object per line. The parser is strict about types (a
// numeric field sent as a string is a protocol error, never a silent
// default) and the daemon always answers — malformed, truncated,
// type-confused or oversized input yields a structured error response,
// never a dropped connection or a crash. Unknown object keys are ignored
// for forward compatibility — among them the retired `engine`, `cuts` and
// `cache_version` keys, whatever their value: the LP engine is fixed, the
// MIP search adds no root cuts, and both caches are content-addressed, so
// there is no cache generation to name (DESIGN.md §14.1, §14.3).
//
// Request schema (fields beyond `schema` optional unless noted):
//   {"schema":"pdw-req-1","type":"solve","id":"r1","benchmark":"PCR",
//    "budget_s":4.0,"deadline_ms":2000,"cache":true,"sleep_ms":0}
//   type: solve (default) | resolve | metrics | ping | shutdown
//   benchmark: Table-II name; required for solve unless sleep_ms > 0
//   budget_s: scheduling-ILP budget (0 = daemon default)
//   deadline_ms: total budget from admission; expired-in-queue requests
//     answer status "deadline", and the remaining deadline caps the solver
//     budget of requests that do run
//   cache: false solves cold, bypassing the shared plan and route caches
//   sleep_ms: load-harness aid — hold a lane for this long instead of
//     solving (admission, queueing and deadlines behave exactly as for a
//     real solve)
//
// Resolve requests (type "resolve") describe an online perturbation of the
// named benchmark's last solved schedule and are served by the daemon's
// resident per-benchmark pipeline (DESIGN.md §15). Fields
// (benchmark required; at least one perturbation required):
//   delay_op:    operation id to delay by delay_s seconds
//   delay_task:  fluid-task id to delay by delay_s seconds
//   delay_s:     required (> 0) with delay_op / delay_task
//   block_cell:  "x:y" cell wash routing must avoid from now on
//   remove_task: waste-bound task id to cancel
// The resident pipeline runs with the daemon's default budgets and the
// shared route cache, so a resolve request's budget_s and cache are
// ignored, and its deadline_ms only expires it while it is still queued
// (answer "deadline"); once on a lane it runs to completion. The response
// carries warm:true when an already primed pipeline served the delta.
//
// Response statuses: ok | budget_hit (plan present; a budget stopped the
// scheduling stage: a pinned MILP solve that did not end optimal, or an
// order search cut at its trial budget or its clock) | rejected (admission
// queue full) | deadline (expired before running) | error (malformed
// request; `error` carries the message, `code` the class). Whether the
// plan is proven optimal is the separate `proven_optimal` flag.
//
// Lines above kMaxRequestBytes are rejected with code "oversize" — the
// documented byte cap that bounds per-connection buffering.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "assay/schedule.h"

namespace pdw::service {

/// Documented request-line byte cap (excluding the newline). Longer lines
/// are answered with a structured "oversize" error and discarded.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

inline constexpr const char* kRequestSchema = "pdw-req-1";
inline constexpr const char* kResponseSchema = "pdw-resp-1";

enum class RequestType { Solve, Resolve, Metrics, Ping, Shutdown };

const char* toString(RequestType type);

struct Request {
  RequestType type = RequestType::Solve;
  std::string id;            ///< client correlation token, echoed verbatim
  std::string benchmark;     ///< Table-II benchmark name (solve)
  double budget_s = 0.0;     ///< scheduling-ILP budget; 0 = daemon default
  double deadline_ms = 0.0;  ///< total deadline from admission; 0 = none
  bool use_cache = true;     ///< plan/route cache participation
  double sleep_ms = 0.0;     ///< test/load aid: hold a lane, skip the solve
  // Resolve perturbation fields (type == Resolve only; -1 / "" = unset).
  int delay_op = -1;         ///< operation id delayed by delay_s
  int delay_task = -1;       ///< fluid-task id delayed by delay_s
  double delay_s = 0.0;      ///< seconds; required with delay_op/delay_task
  std::string block_cell;    ///< "x:y" cell to exclude from wash routing
  int remove_task = -1;      ///< waste-bound task id to cancel
};

/// Result of parsing one request line: either a request or an error with a
/// machine-readable code ("oversize" | "parse" | "schema" | "type" |
/// "value").
struct ParsedRequest {
  std::optional<Request> request;
  std::string error;
  std::string error_code;

  bool ok() const { return request.has_value(); }
};

/// Parse and validate one request line. Never throws; enforces
/// kMaxRequestBytes first so arbitrarily long garbage is cheap to refuse.
ParsedRequest parseRequest(std::string_view line);

/// Parse a strict "x:y" cell spec (non-negative decimal integers, nothing
/// else). Used for the resolve `block_cell` field at both the protocol
/// boundary and the daemon.
bool parseCellSpec(const std::string& spec, int* x, int* y);

/// One-line structured error response (`status:"error"`).
std::string errorResponse(const std::string& id, const std::string& code,
                          const std::string& message);

/// Fields of a solve response (shared between fresh and cached results; a
/// cached CachedPlan is exactly this minus the per-request fields).
struct SolveReply {
  std::string status;  ///< "ok" | "budget_hit" | "rejected" | "deadline"
  bool warm = false;   ///< served from the plan cache (resolve: by an
                       ///< already primed pipeline)
  int n_wash = 0;
  double l_wash_mm = 0.0;
  double t_assay = 0.0;
  double wash_time_s = 0.0;
  bool proven_optimal = false;
  std::string plan;      ///< canonical plan serialization ("" when absent)
  double wall_ms = 0.0;  ///< admission-to-response wall clock
  double queue_ms = 0.0; ///< time spent waiting for a lane
  std::string error;     ///< message when status == "error"
  std::string code;      ///< error class when status == "error"
};

/// Serialize a solve response line (no trailing newline).
std::string solveResponse(const std::string& id, const std::string& trace,
                          const SolveReply& reply);

/// Serialize a ping/shutdown acknowledgement.
std::string ackResponse(RequestType type, const std::string& id,
                        const std::string& trace);

/// Serialize a metrics-scrape response: the full `pdw-metrics-1` registry
/// export embedded as the `metrics` member (pass Registry::exportJson()).
std::string metricsResponse(const std::string& id, const std::string& trace,
                            const std::string& metrics_json);

/// Canonical, deterministic, byte-stable serialization of a washed
/// schedule: every operation (id, device, start, end) and every fluid task
/// (id, kind, fluid, start, end, full path) in id order. Two plans are the
/// same if and only if their serializations are byte-identical — the
/// cross-socket extension of the PR 1 determinism guarantee is asserted on
/// exactly this string.
std::string canonicalPlan(const assay::AssaySchedule& schedule);

/// 64-bit fingerprint of a timed schedule (ops + tasks + paths), used with
/// core::chipFingerprint as the (arch, schedule) part of plan-cache keys.
std::uint64_t scheduleFingerprint(const assay::AssaySchedule& schedule);

}  // namespace pdw::service
