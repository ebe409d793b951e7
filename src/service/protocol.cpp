#include "service/protocol.h"

#include <cmath>
#include <sstream>

#include "obs/json.h"
#include "util/hash.h"

namespace pdw::service {

namespace {

using obs::json::Value;

/// Doubles in responses and canonical plans are printed with enough digits
/// to round-trip (plans must be byte-stable, so the format is fixed here
/// and nowhere else).
std::string formatDouble(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

struct FieldError {
  std::string message;
  std::string code;
};

/// Strict typed field extraction: present-but-wrong-type is an error
/// ("type"), absent leaves the default in place.
std::optional<FieldError> readString(const Value& doc, const char* key,
                                     std::string* out) {
  const Value* v = doc.find(key);
  if (!v) return std::nullopt;
  if (!v->isString())
    return FieldError{std::string(key) + " must be a string", "type"};
  *out = v->string;
  return std::nullopt;
}

std::optional<FieldError> readNumber(const Value& doc, const char* key,
                                     double* out) {
  const Value* v = doc.find(key);
  if (!v) return std::nullopt;
  if (!v->isNumber())
    return FieldError{std::string(key) + " must be a number", "type"};
  if (!std::isfinite(v->number))
    return FieldError{std::string(key) + " must be finite", "value"};
  *out = v->number;
  return std::nullopt;
}

std::optional<FieldError> readBool(const Value& doc, const char* key,
                                   bool* out) {
  const Value* v = doc.find(key);
  if (!v) return std::nullopt;
  if (v->kind != Value::Kind::Bool)
    return FieldError{std::string(key) + " must be a boolean", "type"};
  *out = v->boolean;
  return std::nullopt;
}

/// Non-negative integer id field (op/task ids in resolve requests); absent
/// leaves -1 in place.
std::optional<FieldError> readIndex(const Value& doc, const char* key,
                                    int* out) {
  const Value* v = doc.find(key);
  if (!v) return std::nullopt;
  if (!v->isNumber())
    return FieldError{std::string(key) + " must be a number", "type"};
  if (!std::isfinite(v->number) || v->number < 0.0 ||
      v->number != std::floor(v->number) || v->number > 2147483647.0)
    return FieldError{std::string(key) + " must be a non-negative integer",
                      "value"};
  *out = static_cast<int>(v->number);
  return std::nullopt;
}

ParsedRequest fail(std::string message, std::string code) {
  ParsedRequest parsed;
  parsed.error = std::move(message);
  parsed.error_code = std::move(code);
  return parsed;
}

}  // namespace

bool parseCellSpec(const std::string& spec, int* x, int* y) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size())
    return false;
  long long vals[2] = {0, 0};
  const std::string parts[2] = {spec.substr(0, colon),
                                spec.substr(colon + 1)};
  for (int i = 0; i < 2; ++i) {
    if (parts[i].size() > 9) return false;
    for (char c : parts[i]) {
      if (c < '0' || c > '9') return false;
      vals[i] = vals[i] * 10 + (c - '0');
    }
  }
  *x = static_cast<int>(vals[0]);
  *y = static_cast<int>(vals[1]);
  return true;
}

const char* toString(RequestType type) {
  switch (type) {
    case RequestType::Solve: return "solve";
    case RequestType::Resolve: return "resolve";
    case RequestType::Metrics: return "metrics";
    case RequestType::Ping: return "ping";
    case RequestType::Invalidate: return "invalidate";
    case RequestType::Shutdown: return "shutdown";
  }
  return "?";
}

ParsedRequest parseRequest(std::string_view line) {
  if (line.size() > kMaxRequestBytes)
    return fail("request line exceeds " + std::to_string(kMaxRequestBytes) +
                    " bytes",
                "oversize");
  const std::optional<Value> doc = obs::json::parse(line);
  if (!doc) return fail("malformed JSON", "parse");
  if (!doc->isObject()) return fail("request must be a JSON object", "parse");

  const Value* schema = doc->find("schema");
  if (!schema || !schema->isString() || schema->string != kRequestSchema)
    return fail(std::string("schema must be \"") + kRequestSchema + "\"",
                "schema");

  Request req;
  std::string type_name = "solve";
  if (auto err = readString(*doc, "type", &type_name))
    return fail(err->message, err->code);
  if (type_name == "solve") {
    req.type = RequestType::Solve;
  } else if (type_name == "resolve") {
    req.type = RequestType::Resolve;
  } else if (type_name == "metrics") {
    req.type = RequestType::Metrics;
  } else if (type_name == "ping") {
    req.type = RequestType::Ping;
  } else if (type_name == "invalidate") {
    req.type = RequestType::Invalidate;
  } else if (type_name == "shutdown") {
    req.type = RequestType::Shutdown;
  } else {
    return fail("unknown request type \"" + type_name + "\"", "value");
  }

  if (auto err = readString(*doc, "id", &req.id))
    return fail(err->message, err->code);
  if (auto err = readString(*doc, "benchmark", &req.benchmark))
    return fail(err->message, err->code);
  if (auto err = readNumber(*doc, "budget_s", &req.budget_s))
    return fail(err->message, err->code);
  if (auto err = readNumber(*doc, "deadline_ms", &req.deadline_ms))
    return fail(err->message, err->code);
  if (auto err = readBool(*doc, "cache", &req.use_cache))
    return fail(err->message, err->code);
  if (auto err = readNumber(*doc, "sleep_ms", &req.sleep_ms))
    return fail(err->message, err->code);
  if (auto err = readIndex(*doc, "delay_op", &req.delay_op))
    return fail(err->message, err->code);
  if (auto err = readIndex(*doc, "delay_task", &req.delay_task))
    return fail(err->message, err->code);
  if (auto err = readNumber(*doc, "delay_s", &req.delay_s))
    return fail(err->message, err->code);
  if (auto err = readString(*doc, "block_cell", &req.block_cell))
    return fail(err->message, err->code);
  if (auto err = readIndex(*doc, "remove_task", &req.remove_task))
    return fail(err->message, err->code);
  double version = 0.0;
  if (auto err = readNumber(*doc, "cache_version", &version))
    return fail(err->message, err->code);
  // Bound at 2^53, the last exact double integer: beyond it the value is
  // ambiguous, and a huge value (say 1e300) would make the uint64 cast
  // undefined behavior — or park the cache one ++ away from wrapping to 0.
  constexpr double kMaxCacheVersion = 9007199254740992.0;  // 2^53
  if (version < 0.0 || version != std::floor(version) ||
      version >= kMaxCacheVersion)
    return fail("cache_version must be a non-negative integer below 2^53",
                "value");
  req.cache_version = static_cast<std::uint64_t>(version);

  if (req.budget_s < 0.0) return fail("budget_s must be >= 0", "value");
  if (req.deadline_ms < 0.0) return fail("deadline_ms must be >= 0", "value");
  if (req.sleep_ms < 0.0) return fail("sleep_ms must be >= 0", "value");
  if (req.type == RequestType::Solve && req.benchmark.empty() &&
      req.sleep_ms <= 0.0)
    return fail("solve requires a benchmark", "value");
  if (req.type == RequestType::Resolve) {
    if (req.benchmark.empty())
      return fail("resolve requires a benchmark", "value");
    const bool has_delay = req.delay_op >= 0 || req.delay_task >= 0;
    if (has_delay && req.delay_s <= 0.0)
      return fail("delay_op/delay_task require delay_s > 0", "value");
    if (!has_delay && req.delay_s > 0.0)
      return fail("delay_s requires delay_op or delay_task", "value");
    if (!req.block_cell.empty()) {
      int x = 0, y = 0;
      if (!parseCellSpec(req.block_cell, &x, &y))
        return fail("block_cell must be \"x:y\" with non-negative integers",
                    "value");
    }
    if (!has_delay && req.block_cell.empty() && req.remove_task < 0)
      return fail("resolve requires at least one perturbation "
                  "(delay_op, delay_task, block_cell, remove_task)",
                  "value");
  }

  ParsedRequest parsed;
  parsed.request = std::move(req);
  return parsed;
}

std::string errorResponse(const std::string& id, const std::string& code,
                          const std::string& message) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kResponseSchema << "\""
      << ",\"id\":" << obs::json::quote(id) << ",\"status\":\"error\""
      << ",\"code\":" << obs::json::quote(code)
      << ",\"error\":" << obs::json::quote(message) << "}";
  return out.str();
}

std::string solveResponse(const std::string& id, const std::string& trace,
                          const SolveReply& reply) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kResponseSchema << "\""
      << ",\"id\":" << obs::json::quote(id)
      << ",\"trace\":" << obs::json::quote(trace)
      << ",\"status\":" << obs::json::quote(reply.status)
      << ",\"warm\":" << (reply.warm ? "true" : "false");
  if (!reply.plan.empty()) {
    out << ",\"n_wash\":" << reply.n_wash
        << ",\"l_wash_mm\":" << formatDouble(reply.l_wash_mm)
        << ",\"t_assay\":" << formatDouble(reply.t_assay)
        << ",\"wash_time_s\":" << formatDouble(reply.wash_time_s)
        << ",\"proven_optimal\":" << (reply.proven_optimal ? "true" : "false")
        << ",\"plan\":" << obs::json::quote(reply.plan);
  }
  if (reply.status == "error")
    out << ",\"code\":" << obs::json::quote(reply.code)
        << ",\"error\":" << obs::json::quote(reply.error);
  out << ",\"wall_ms\":" << formatDouble(reply.wall_ms)
      << ",\"queue_ms\":" << formatDouble(reply.queue_ms) << "}";
  return out.str();
}

std::string ackResponse(RequestType type, const std::string& id,
                        const std::string& trace, std::uint64_t version) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kResponseSchema << "\""
      << ",\"id\":" << obs::json::quote(id)
      << ",\"trace\":" << obs::json::quote(trace) << ",\"status\":\"ok\""
      << ",\"type\":\"" << toString(type) << "\""
      << ",\"cache_version\":" << version << "}";
  return out.str();
}

std::string metricsResponse(const std::string& id, const std::string& trace,
                            const std::string& metrics_json) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kResponseSchema << "\""
      << ",\"id\":" << obs::json::quote(id)
      << ",\"trace\":" << obs::json::quote(trace) << ",\"status\":\"ok\""
      << ",\"type\":\"metrics\",\"metrics\":" << metrics_json << "}";
  return out.str();
}

std::string canonicalPlan(const assay::AssaySchedule& schedule) {
  std::ostringstream out;
  out.precision(12);
  out << "ops";
  for (const assay::OpSchedule& op : schedule.opSchedules())
    out << ";" << op.op << ",d" << op.device << "," << op.start << ","
        << op.end;
  out << "|tasks";
  for (const assay::FluidTask& task : schedule.tasks()) {
    out << ";" << task.id << "," << toString(task.kind) << ",f" << task.fluid
        << "," << task.start << "," << task.end << ",[";
    bool first = true;
    for (const arch::Cell& c : task.path.cells()) {
      if (!first) out << " ";
      first = false;
      out << c.x << ":" << c.y;
    }
    out << "]";
  }
  return out.str();
}

std::uint64_t scheduleFingerprint(const assay::AssaySchedule& schedule) {
  using util::hash::combine;
  using util::hash::combineDouble;
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const assay::OpSchedule& op : schedule.opSchedules()) {
    h = combine(h, static_cast<std::uint64_t>(op.op));
    h = combine(h, static_cast<std::uint64_t>(op.device));
    h = combineDouble(h, op.start);
    h = combineDouble(h, op.end);
  }
  for (const assay::FluidTask& task : schedule.tasks()) {
    h = combine(h, static_cast<std::uint64_t>(task.id));
    h = combine(h, static_cast<std::uint64_t>(task.kind));
    h = combine(h, static_cast<std::uint64_t>(task.fluid));
    h = combineDouble(h, task.start);
    h = combineDouble(h, task.end);
    for (const arch::Cell& c : task.path.cells())
      h = combine(h, (static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(c.x))
                      << 32) |
                         static_cast<std::uint32_t>(c.y));
  }
  return h;
}

}  // namespace pdw::service
