// pdwd integration + robustness suite (DESIGN.md §14).
//
// Everything here drives the daemon in-process through the same
// handleLine() surface every transport uses, so the full protocol, the
// admission queue, the solver lanes and both shared caches are exercised
// without a socket — plus one real unix-socket round trip at the end.
//
// Suites:
//   PdwdProtocol     strict parsing: malformed / truncated / oversized /
//                    type-confused input always yields a structured error
//                    (deterministic fuzz corpus included — an LCG, not
//                    rand(), so failures replay)
//   PdwdDaemon       solve -> warm hit (byte-identical plan, metrics
//                    delta), scrape / ping / invalidate, stdio batch,
//                    shutdown drains in-flight work
//   PdwdConcurrency  N concurrent identical requests produce byte-identical
//                    plans (TSAN target; budgets are optimality-bound so a
//                    10x sanitizer slowdown cannot change the answer)
//   PdwdOverload     bounded queue rejects, queued deadlines expire,
//                    tiny budgets answer budget_hit with a usable plan
//   RouteCacheEpoch  epoch-guarded inserts drop stale results, concurrent
//                    readers survive repeated invalidation (TSAN target)
//   PlanCacheVersion versioned plan-cache unit tests (bumpTo, stale drop)
//   PdwdSocket       SocketServer + LineClient round trip, oversize
//                    recovery, disconnect-before-read survival (SIGPIPE),
//                    shutdown ends the accept loop
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/path.h"
#include "core/route_cache.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"

namespace {

using namespace pdw;
using service::Daemon;
using service::DaemonOptions;
using service::parseRequest;

// ---- helpers -------------------------------------------------------------

obs::json::Value parseResponse(const std::string& line) {
  const std::optional<obs::json::Value> doc = obs::json::parse(line);
  EXPECT_TRUE(doc.has_value()) << "unparseable response: " << line;
  if (!doc) return obs::json::Value{};
  EXPECT_TRUE(doc->isObject()) << line;
  const obs::json::Value* schema = doc->find("schema");
  EXPECT_TRUE(schema && schema->isString() &&
              schema->string == service::kResponseSchema)
      << line;
  return *doc;
}

std::string str(const obs::json::Value& doc, const std::string& key) {
  const obs::json::Value* v = doc.find(key);
  return v && v->isString() ? v->string : std::string();
}

double num(const obs::json::Value& doc, const std::string& key) {
  const obs::json::Value* v = doc.find(key);
  return v && v->isNumber() ? v->number : 0.0;
}

bool boolean(const obs::json::Value& doc, const std::string& key) {
  const obs::json::Value* v = doc.find(key);
  return v && v->kind == obs::json::Value::Kind::Bool && v->boolean;
}

std::int64_t counterDelta(const obs::MetricsSnapshot& baseline,
                          const char* name) {
  return obs::Registry::instance().snapshot().since(baseline).counter(name);
}

/// Histogram observation count (0 when the metric is absent).
std::int64_t histCount(const obs::MetricsSnapshot& snapshot,
                       const char* name) {
  const auto it = snapshot.values.find(name);
  return it == snapshot.values.end() ? 0 : it->second.count;
}

/// Spin (with sleeps) until `pred` holds; fails the test on timeout.
void awaitTrue(const std::function<bool()>& pred, const char* what,
               double timeout_s = 30.0) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!pred()) {
    ASSERT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              timeout_s)
        << "timed out waiting for " << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string solveLine(const std::string& id, const std::string& benchmark,
                      const std::string& extra = "") {
  return "{\"schema\":\"pdw-req-1\",\"type\":\"solve\",\"id\":\"" + id +
         "\",\"benchmark\":\"" + benchmark + "\"" + extra + "}";
}

std::string sleepLine(const std::string& id, double sleep_ms,
                      const std::string& extra = "") {
  std::ostringstream out;
  out << "{\"schema\":\"pdw-req-1\",\"type\":\"solve\",\"id\":\"" << id
      << "\",\"sleep_ms\":" << sleep_ms << extra << "}";
  return out.str();
}

// ---- PdwdProtocol --------------------------------------------------------

TEST(PdwdProtocol, ValidSolveRequestParses) {
  const auto parsed = parseRequest(
      "{\"schema\":\"pdw-req-1\",\"type\":\"solve\",\"id\":\"r1\","
      "\"benchmark\":\"PCR\",\"budget_s\":2.5,\"deadline_ms\":4000,"
      "\"cache\":false,\"cuts\":\"gomory\","
      "\"cache_version\":3,\"sleep_ms\":0}");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const service::Request& req = *parsed.request;
  EXPECT_EQ(req.type, service::RequestType::Solve);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.benchmark, "PCR");
  EXPECT_DOUBLE_EQ(req.budget_s, 2.5);
  EXPECT_DOUBLE_EQ(req.deadline_ms, 4000.0);
  EXPECT_FALSE(req.use_cache);
  EXPECT_EQ(req.cache_version, 3u);
}

TEST(PdwdProtocol, DefaultsAndUnknownKeysIgnored) {
  // Unknown keys pass through silently (forward compatibility); type
  // defaults to solve; cache defaults to on.
  const auto parsed = parseRequest(
      "{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\","
      "\"future_knob\":{\"nested\":[1,2,3]},\"another\":null}");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.request->type, service::RequestType::Solve);
  EXPECT_TRUE(parsed.request->use_cache);
  EXPECT_DOUBLE_EQ(parsed.request->budget_s, 0.0);
}

TEST(PdwdProtocol, EngineKeyIsAnIgnoredUnknownKey) {
  // There is one LP engine and one root-cut policy; an "engine" or "cuts"
  // key left over from older clients parses like any other unknown key,
  // whatever its value or type.
  const std::string with_key = solveLine(
      "e1", "PCR", ",\"engine\":\"dense\",\"cuts\":\"off\",\"budget_s\":2");
  const auto parsed = parseRequest(with_key);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto plain = parseRequest(solveLine("e1", "PCR", ",\"budget_s\":2"));
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_EQ(parsed.request->benchmark, plain.request->benchmark);
  EXPECT_DOUBLE_EQ(parsed.request->budget_s, plain.request->budget_s);
  EXPECT_TRUE(parseRequest(solveLine("e2", "PCR", ",\"engine\":7")).ok());
  EXPECT_TRUE(parseRequest(solveLine("e3", "PCR", ",\"cuts\":7")).ok());
  EXPECT_TRUE(
      parseRequest(solveLine("e4", "PCR", ",\"cuts\":\"zigzag\"")).ok());
}

TEST(PdwdProtocol, RejectsMalformedAndSchemaErrors) {
  EXPECT_EQ(parseRequest("").error_code, "parse");
  EXPECT_EQ(parseRequest("{not json").error_code, "parse");
  EXPECT_EQ(parseRequest("42").error_code, "parse");       // not an object
  EXPECT_EQ(parseRequest("[1,2,3]").error_code, "parse");  // not an object
  EXPECT_EQ(parseRequest("{}").error_code, "schema");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-9\"}").error_code, "schema");
  EXPECT_EQ(parseRequest("{\"schema\":1}").error_code, "schema");
}

TEST(PdwdProtocol, RejectsTypeConfusion) {
  // Present-but-wrong-type is a protocol error, never a silent default.
  EXPECT_EQ(
      parseRequest(
          "{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\",\"budget_s\":\"4\"}")
          .error_code,
      "type");
  EXPECT_EQ(parseRequest(
                "{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\",\"cache\":1}")
                .error_code,
            "type");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"benchmark\":7}")
                .error_code,
            "type");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":[\"solve\"]}")
                .error_code,
            "type");
}

TEST(PdwdProtocol, RejectsValueErrors) {
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\","
                         "\"budget_s\":-1}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\","
                         "\"deadline_ms\":-5}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\","
                         "\"cache_version\":1.5}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"dance\"}")
                .error_code,
            "value");
  // A solve with neither benchmark nor sleep_ms has nothing to do.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"solve\"}")
                .error_code,
            "value");
}

TEST(PdwdProtocol, ResolveRequestParsesAndValidates) {
  const auto parsed = parseRequest(
      "{\"schema\":\"pdw-req-1\",\"type\":\"resolve\",\"id\":\"r1\","
      "\"benchmark\":\"PCR\",\"delay_op\":3,\"delay_s\":2.5,"
      "\"block_cell\":\"4:7\",\"remove_task\":9}");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const service::Request& req = *parsed.request;
  EXPECT_EQ(req.type, service::RequestType::Resolve);
  EXPECT_EQ(req.delay_op, 3);
  EXPECT_EQ(req.delay_task, -1);
  EXPECT_DOUBLE_EQ(req.delay_s, 2.5);
  EXPECT_EQ(req.block_cell, "4:7");
  EXPECT_EQ(req.remove_task, 9);
  int x = -1, y = -1;
  EXPECT_TRUE(service::parseCellSpec(req.block_cell, &x, &y));
  EXPECT_EQ(x, 4);
  EXPECT_EQ(y, 7);

  // A benchmark is mandatory: there is no resident pipeline without one.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"delay_op\":0,\"delay_s\":1}")
                .error_code,
            "value");
  // Delay target and delay seconds come as a pair, both ways round.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\",\"delay_op\":0}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\",\"delay_s\":2}")
                .error_code,
            "value");
  // A resolve with no perturbation at all has nothing to repair.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\"}")
                .error_code,
            "value");
  // Ids are non-negative integers — fractional or negative is refused.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\",\"delay_op\":1.5,"
                         "\"delay_s\":2}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\",\"remove_task\":-1}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\",\"delay_op\":\"0\","
                         "\"delay_s\":2}")
                .error_code,
            "type");
}

TEST(PdwdProtocol, RejectsMalformedCellSpecs) {
  int x = 0, y = 0;
  for (const char* bad : {"", ":", "4:", ":7", "4", "4:7:2", "x:y", "4 :7",
                          "-1:3", "4:+7", "0x4:7", "1234567890:1"})
    EXPECT_FALSE(service::parseCellSpec(bad, &x, &y)) << bad;
  EXPECT_TRUE(service::parseCellSpec("0:0", &x, &y));
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 0);
  // The parse-level gate uses the same predicate.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"resolve\","
                         "\"benchmark\":\"PCR\",\"block_cell\":\"4x7\"}")
                .error_code,
            "value");
}

TEST(PdwdProtocol, SurrogateEscapesOnTheWire) {
  // Astral-plane ids arrive as surrogate-pair escapes (RFC 8259 §7) and
  // must decode to 4-byte UTF-8 — and echo back intact in the response.
  const auto parsed = parseRequest(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
      "\"id\":\"\\uD83D\\uDE00\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.request->id, "\xF0\x9F\x98\x80");

  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  Daemon daemon(options);
  const obs::json::Value doc = parseResponse(daemon.handleLine(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
      "\"id\":\"\\uD83D\\uDE00\"}"));
  EXPECT_EQ(str(doc, "id"), "\xF0\x9F\x98\x80");

  // Lone or malformed surrogates are structured parse errors, not mangled
  // ids reaching the admission path.
  for (const char* line :
       {"{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"\\uD83D\"}",
        "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"\\uDE00\"}",
        "{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
        "\"id\":\"\\uD83D\\u0041\"}"}) {
    EXPECT_EQ(parseRequest(line).error_code, "parse") << line;
    EXPECT_EQ(str(parseResponse(daemon.handleLine(line)), "code"), "parse")
        << line;
  }
  daemon.shutdown();
}

TEST(PdwdProtocol, RejectsCacheVersionBeyondExactDoubles) {
  // 2^53 is the last double-exact integer: a larger value is ambiguous and
  // the uint64 cast would be UB for huge magnitudes (e.g. 1e300), while a
  // value near UINT64_MAX would park the version one ++ away from wrapping.
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
                         "\"cache_version\":1e300}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
                         "\"cache_version\":9007199254740992}")
                .error_code,
            "value");
  EXPECT_EQ(parseRequest("{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
                         "\"cache_version\":18446744073709551615}")
                .error_code,
            "value");
  // The largest exact integer below the bound round-trips precisely.
  const auto ok = parseRequest(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\","
      "\"cache_version\":9007199254740991}");
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.request->cache_version, 9007199254740991ull);
}

TEST(PdwdProtocol, RejectsOversizedLines) {
  // One byte over the documented cap is refused before any JSON parsing.
  std::string big = "{\"schema\":\"pdw-req-1\",\"id\":\"";
  big.append(service::kMaxRequestBytes, 'x');
  big += "\"}";
  const auto parsed = parseRequest(big);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error_code, "oversize");

  // At the cap exactly, size is not the reason to refuse.
  std::string fits = "{\"schema\":\"pdw-req-1\",\"benchmark\":\"PCR\",";
  fits += "\"id\":\"";
  fits.append(service::kMaxRequestBytes - fits.size() - 2, 'y');
  fits += "\"}";
  ASSERT_EQ(fits.size(), service::kMaxRequestBytes);
  EXPECT_TRUE(parseRequest(fits).ok());
}

TEST(PdwdProtocol, TruncationsNeverParse) {
  const std::string full =
      "{\"schema\":\"pdw-req-1\",\"type\":\"solve\",\"benchmark\":\"PCR\","
      "\"budget_s\":0.5,\"cache\":true}";
  for (std::size_t n = 0; n < full.size(); ++n) {
    const auto parsed = parseRequest(std::string_view(full).substr(0, n));
    EXPECT_FALSE(parsed.ok()) << "prefix of length " << n << " parsed";
    EXPECT_FALSE(parsed.error_code.empty());
  }
}

TEST(PdwdProtocol, SerializersRoundTripThroughJson) {
  const std::string err = service::errorResponse("id-1", "parse", "bad \"x\"");
  obs::json::Value doc = parseResponse(err);
  EXPECT_EQ(str(doc, "status"), "error");
  EXPECT_EQ(str(doc, "code"), "parse");
  EXPECT_EQ(str(doc, "error"), "bad \"x\"");

  doc = parseResponse(service::ackResponse(service::RequestType::Invalidate,
                                           "id-2", "t-9", 7));
  EXPECT_EQ(str(doc, "status"), "ok");
  EXPECT_EQ(str(doc, "type"), "invalidate");
  EXPECT_DOUBLE_EQ(num(doc, "cache_version"), 7.0);

  doc = parseResponse(service::metricsResponse(
      "id-3", "t-10", obs::Registry::instance().exportJson()));
  const obs::json::Value* metrics = doc.find("metrics");
  ASSERT_TRUE(metrics && metrics->isObject());
  EXPECT_EQ(str(*metrics, "schema"), "pdw-metrics-1");
}

/// Deterministic fuzz: random bytes, truncations and single-edit mutations
/// of a valid request. The invariant under test is the protocol's promise —
/// any input yields either a parsed request or a structured error, and the
/// daemon always answers with one pdw-resp-1 line. Seeded LCG, no rand():
/// a failure reproduces from the iteration index alone.
TEST(PdwdProtocol, FuzzAlwaysAnswersStructured) {
  DaemonOptions options;
  options.lanes = 1;
  options.queue_capacity = 4;
  options.threads = 1;
  Daemon daemon(options);

  std::uint64_t state = 0x243f6a8885a308d3ull;  // fixed seed
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const std::string valid =
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"fuzz\"}";
  const std::string known_codes[] = {"oversize", "parse", "schema", "type",
                                     "value"};

  for (int i = 0; i < 400; ++i) {
    std::string line;
    if (i % 2 == 0) {
      // Random bytes (printable-heavy so JSON-ish fragments appear).
      const std::size_t len = next() % 120;
      for (std::size_t j = 0; j < len; ++j)
        line.push_back(static_cast<char>(next() % 96 + 32));
    } else {
      // Single-edit mutation of the valid ping (replace/insert/delete).
      line = valid;
      const std::size_t pos = next() % line.size();
      switch (next() % 3) {
        case 0: line[pos] = static_cast<char>(next() % 96 + 32); break;
        case 1:
          line.insert(pos, 1, static_cast<char>(next() % 96 + 32));
          break;
        default: line.erase(pos, 1); break;
      }
    }

    const auto parsed = parseRequest(line);
    if (!parsed.ok()) {
      bool known = false;
      for (const std::string& code : known_codes)
        if (parsed.error_code == code) known = true;
      EXPECT_TRUE(known) << "iteration " << i << ": unknown error code \""
                         << parsed.error_code << "\" for: " << line;
      EXPECT_FALSE(parsed.error.empty()) << "iteration " << i;
    }

    // The daemon answers every line, parseable or not, with one response.
    const std::string response = daemon.handleLine(line);
    const obs::json::Value doc = parseResponse(response);
    EXPECT_FALSE(str(doc, "status").empty())
        << "iteration " << i << ": " << response;
  }
  daemon.shutdown();
}

// ---- PdwdDaemon ----------------------------------------------------------

TEST(PdwdDaemon, DefaultNodeCapsAreTheStageDefaults) {
  // The daemon restates no cap: a change to a stage's default reaches
  // pdwd unchanged.
  const DaemonOptions options;
  EXPECT_EQ(options.default_budget_nodes,
            core::ScheduleIlpOptions{}.solver.node_limit);
  EXPECT_EQ(options.path_budget_nodes,
            core::WashPathOptions{}.solver.node_limit);
}

TEST(PdwdDaemon, SolveWarmsAndInvalidates) {
  const obs::MetricsSnapshot baseline = obs::Registry::instance().snapshot();
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  options.default_budget_s = 60.0;  // Kinase act-1 proves optimal in ~0.5 s
  Daemon daemon(options);

  // Cold solve: full pipeline, plan present, not warm.
  obs::json::Value cold =
      parseResponse(daemon.handleLine(solveLine("c1", "Kinase act-1")));
  EXPECT_EQ(str(cold, "id"), "c1");
  EXPECT_EQ(str(cold, "status"), "ok");
  EXPECT_FALSE(boolean(cold, "warm"));
  EXPECT_TRUE(boolean(cold, "proven_optimal"));
  const std::string plan = str(cold, "plan");
  EXPECT_FALSE(plan.empty());
  EXPECT_GT(num(cold, "n_wash"), 0.0);

  // Identical request: served from the plan cache, byte-identical plan.
  obs::json::Value warm =
      parseResponse(daemon.handleLine(solveLine("c2", "Kinase act-1")));
  EXPECT_EQ(str(warm, "status"), "ok");
  EXPECT_TRUE(boolean(warm, "warm"));
  EXPECT_EQ(str(warm, "plan"), plan);
  EXPECT_EQ(counterDelta(baseline, obs::names::kPdwdPlanCacheHits), 1);

  // Metrics scrape embeds the full registry export.
  obs::json::Value scrape = parseResponse(daemon.handleLine(
      "{\"schema\":\"pdw-req-1\",\"type\":\"metrics\",\"id\":\"m1\"}"));
  const obs::json::Value* metrics = scrape.find("metrics");
  ASSERT_TRUE(metrics && metrics->isObject());
  const obs::json::Value* values = metrics->find("metrics");
  ASSERT_TRUE(values && values->isObject());
  EXPECT_TRUE(values->find(obs::names::kPdwdRequests));

  // Ping reports the cache version; invalidate bumps it...
  obs::json::Value ping = parseResponse(daemon.handleLine(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"p1\"}"));
  const double v0 = num(ping, "cache_version");
  obs::json::Value inval = parseResponse(daemon.handleLine(
      "{\"schema\":\"pdw-req-1\",\"type\":\"invalidate\",\"id\":\"i1\"}"));
  EXPECT_EQ(num(inval, "cache_version"), v0 + 1.0);

  // ...and the next identical solve is cold again — with the same bytes
  // (determinism across invalidation, not just across requests).
  obs::json::Value recold =
      parseResponse(daemon.handleLine(solveLine("c3", "Kinase act-1")));
  EXPECT_FALSE(boolean(recold, "warm"));
  EXPECT_EQ(str(recold, "plan"), plan);

  // A client cache_version above the daemon's bumps it the same way.
  const std::uint64_t before = daemon.cacheVersion();
  parseResponse(daemon.handleLine(
      solveLine("c4", "Kinase act-1",
                ",\"cache_version\":" + std::to_string(before + 5))));
  EXPECT_EQ(daemon.cacheVersion(), before + 5);

  // Unknown benchmarks are refused at admission (partition invariant).
  obs::json::Value unknown =
      parseResponse(daemon.handleLine(solveLine("u1", "NotABenchmark")));
  EXPECT_EQ(str(unknown, "status"), "error");
  EXPECT_EQ(str(unknown, "code"), "value");

  daemon.shutdown();

  // Outcome partition: every admitted solve landed in exactly one bucket.
  const obs::MetricsSnapshot delta =
      obs::Registry::instance().snapshot().since(baseline);
  EXPECT_LE(delta.counter(obs::names::kPdwdSolveOk) +
                delta.counter(obs::names::kPdwdBudgetHits) +
                delta.counter(obs::names::kPdwdDeadlineExpired) +
                delta.counter(obs::names::kPdwdRejectedQueueFull),
            delta.counter(obs::names::kPdwdRequests));
}

TEST(PdwdDaemon, EngineKeyDoesNotChangeThePlan) {
  // The dropped "engine" and "cuts" keys are ignored end to end: the
  // request solves cold (cache off, so nothing is replayed) to the same
  // canonical plan as the same request without them.
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  Daemon daemon(options);
  const std::string extra = ",\"budget_s\":60,\"cache\":false";
  const obs::json::Value plain =
      parseResponse(daemon.handleLine(solveLine("p1", "Kinase act-1", extra)));
  const obs::json::Value keyed = parseResponse(daemon.handleLine(solveLine(
      "p2", "Kinase act-1",
      extra + ",\"engine\":\"dense\",\"cuts\":\"off\"")));
  daemon.shutdown();
  EXPECT_EQ(str(plain, "status"), "ok");
  EXPECT_EQ(str(keyed, "status"), "ok");
  EXPECT_FALSE(boolean(keyed, "warm"));
  ASSERT_FALSE(str(plain, "plan").empty());
  EXPECT_EQ(str(keyed, "plan"), str(plain, "plan"));
}

/// The cache_version bump is an admission-gated side effect: a rejected
/// request, or one opting out of the caches, must not wipe shared state
/// for every other client.
TEST(PdwdDaemon, CacheVersionBumpRequiresAdmission) {
  const obs::MetricsSnapshot baseline = obs::Registry::instance().snapshot();
  DaemonOptions options;
  options.lanes = 1;
  options.queue_capacity = 1;
  options.threads = 1;
  Daemon daemon(options);
  const std::uint64_t v0 = daemon.cacheVersion();

  // cache:false never bumps, whatever generation it claims.
  obs::json::Value optout = parseResponse(daemon.handleLine(
      sleepLine("no-cache", 1, ",\"cache\":false,\"cache_version\":50")));
  EXPECT_EQ(str(optout, "status"), "ok");
  EXPECT_EQ(daemon.cacheVersion(), v0);

  // Occupy the lane and the single queue slot (the opt-out solve above
  // already contributed one queue-wait observation).
  std::string reply_a, reply_b;
  std::thread ta([&] { reply_a = daemon.handleLine(sleepLine("a", 600)); });
  awaitTrue(
      [&] {
        return histCount(obs::Registry::instance().snapshot().since(baseline),
                         obs::names::kPdwdQueueWaitSeconds) >= 2;
      },
      "the holder to reach the lane");
  std::thread tb([&] { reply_b = daemon.handleLine(sleepLine("b", 5)); });
  awaitTrue(
      [&] {
        return obs::Registry::instance()
                   .snapshot()
                   .gauge(obs::names::kPdwdQueueDepth) >= 1.0;
      },
      "the filler to be queued");

  // Queue-full rejection happens before the bump: version is untouched.
  obs::json::Value rejected = parseResponse(
      daemon.handleLine(sleepLine("r", 5, ",\"cache_version\":50")));
  EXPECT_EQ(str(rejected, "status"), "rejected");
  EXPECT_EQ(daemon.cacheVersion(), v0);

  ta.join();
  tb.join();
  EXPECT_EQ(str(parseResponse(reply_a), "status"), "ok");
  EXPECT_EQ(str(parseResponse(reply_b), "status"), "ok");

  // An admitted cache-using solve with a higher generation does bump.
  obs::json::Value bumped = parseResponse(
      daemon.handleLine(sleepLine("ok", 1, ",\"cache_version\":50")));
  EXPECT_EQ(str(bumped, "status"), "ok");
  EXPECT_EQ(daemon.cacheVersion(), 50u);
  daemon.shutdown();
}

/// A deadline that caps the solver budget folds a measured wall-clock value
/// into the config fingerprint; such requests must bypass the plan cache on
/// both lookup and insert (near-unique keys would never warm-hit and would
/// LRU-evict useful entries).
TEST(PdwdDaemon, DeadlineCappedSolvesBypassPlanCache) {
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  options.default_budget_s = 60.0;
  Daemon daemon(options);

  // The 30 s deadline caps the 60 s budget. Kinase act-1 proves optimal in
  // well under a second, so the solve itself is unaffected — but nothing
  // may be inserted under the deadline-derived key.
  obs::json::Value capped = parseResponse(daemon.handleLine(
      solveLine("d1", "Kinase act-1", ",\"deadline_ms\":30000")));
  EXPECT_EQ(str(capped, "status"), "ok");
  EXPECT_FALSE(boolean(capped, "warm"));
  const std::string plan = str(capped, "plan");
  EXPECT_FALSE(plan.empty());

  // An identical uncapped request is still cold: the capped solve did not
  // populate the cache.
  obs::json::Value cold =
      parseResponse(daemon.handleLine(solveLine("d2", "Kinase act-1")));
  EXPECT_EQ(str(cold, "status"), "ok");
  EXPECT_FALSE(boolean(cold, "warm"));
  EXPECT_EQ(str(cold, "plan"), plan);  // same deterministic answer

  // A further capped request skips lookup too — cold again by design.
  obs::json::Value capped2 = parseResponse(daemon.handleLine(
      solveLine("d3", "Kinase act-1", ",\"deadline_ms\":30000")));
  EXPECT_FALSE(boolean(capped2, "warm"));
  daemon.shutdown();
}

std::string resolveLine(const std::string& id, const std::string& benchmark,
                        const std::string& perturbation) {
  return "{\"schema\":\"pdw-req-1\",\"type\":\"resolve\",\"id\":\"" + id +
         "\",\"benchmark\":\"" + benchmark + "\"" + perturbation + "}";
}

TEST(PdwdDaemon, ResolveColdPrimesThenServesWarmDeltas) {
  const obs::MetricsSnapshot baseline = obs::Registry::instance().snapshot();
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  options.default_budget_s = 60.0;
  Daemon daemon(options);

  // First resolve: no resident pipeline yet, so the daemon cold-primes the
  // benchmark's base solve and then repairs it — warm:false.
  obs::json::Value first = parseResponse(daemon.handleLine(
      resolveLine("r1", "Kinase act-1", ",\"delay_op\":0,\"delay_s\":2")));
  EXPECT_EQ(str(first, "status"), "ok") << str(first, "error");
  EXPECT_FALSE(boolean(first, "warm"));
  EXPECT_FALSE(str(first, "plan").empty());

  // Second delta against the now-resident pipeline composes on the first —
  // warm:true.
  obs::json::Value second = parseResponse(daemon.handleLine(
      resolveLine("r2", "Kinase act-1", ",\"delay_op\":1,\"delay_s\":1.5")));
  EXPECT_EQ(str(second, "status"), "ok");
  EXPECT_TRUE(boolean(second, "warm"));
  EXPECT_FALSE(str(second, "plan").empty());

  // A structurally invalid delta is a per-request error; the resident
  // state stays usable and the next valid delta is still warm.
  obs::json::Value bad = parseResponse(daemon.handleLine(
      resolveLine("r3", "Kinase act-1", ",\"delay_op\":9999,\"delay_s\":1")));
  EXPECT_EQ(str(bad, "status"), "error");
  EXPECT_EQ(str(bad, "code"), "value");
  obs::json::Value third = parseResponse(daemon.handleLine(
      resolveLine("r4", "Kinase act-1", ",\"delay_op\":0,\"delay_s\":1")));
  EXPECT_EQ(str(third, "status"), "ok");
  EXPECT_TRUE(boolean(third, "warm"));

  // Unknown benchmarks are refused at admission, same as solve.
  obs::json::Value unknown = parseResponse(daemon.handleLine(
      resolveLine("r5", "NotABenchmark", ",\"delay_op\":0,\"delay_s\":1")));
  EXPECT_EQ(str(unknown, "status"), "error");
  EXPECT_EQ(str(unknown, "code"), "value");

  daemon.shutdown();

  // The pipeline-level resolve metrics reconcile with what was served:
  // four attempts (three valid, one rejected delta).
  const obs::MetricsSnapshot delta =
      obs::Registry::instance().snapshot().since(baseline);
  EXPECT_EQ(delta.counter(obs::names::kResolveRequests), 4);
  EXPECT_EQ(delta.counter(obs::names::kResolveErrors), 1);
  const auto seconds = delta.values.find(obs::names::kResolveSeconds);
  ASSERT_NE(seconds, delta.values.end());
  EXPECT_EQ(seconds->second.count, 3);
}

TEST(PdwdDaemon, StdioBatchStopsAtShutdown) {
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  Daemon daemon(options);

  std::istringstream in(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"a\"}\n"
      "\n"  // blank lines are skipped, not answered
      + sleepLine("b", 5) + "\n" +
      "{\"schema\":\"pdw-req-1\",\"type\":\"shutdown\",\"id\":\"c\"}\n" +
      sleepLine("after-shutdown", 5) + "\n");
  std::ostringstream out;
  const std::size_t served = service::serveStdio(daemon, in, out);
  EXPECT_EQ(served, 3u);  // the post-shutdown line is never read

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(lines, line))
    ids.push_back(str(parseResponse(line), "id"));
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], "a");
  EXPECT_EQ(ids[1], "b");
  EXPECT_EQ(ids[2], "c");
  EXPECT_TRUE(daemon.shutdownRequested());
  daemon.shutdown();
}

TEST(PdwdDaemon, ShutdownDrainsInFlightWork) {
  const obs::MetricsSnapshot baseline = obs::Registry::instance().snapshot();
  DaemonOptions options;
  options.lanes = 2;
  options.threads = 1;
  Daemon daemon(options);

  // Two in-flight sleeps occupy both lanes...
  std::vector<std::string> replies(2);
  std::thread t0([&] { replies[0] = daemon.handleLine(sleepLine("s0", 400)); });
  std::thread t1([&] { replies[1] = daemon.handleLine(sleepLine("s1", 400)); });
  awaitTrue(
      [&] {
        return histCount(obs::Registry::instance().snapshot().since(baseline),
                         obs::names::kPdwdQueueWaitSeconds) >= 2;
      },
      "both sleeps to reach a lane");

  // ...shutdown is acknowledged immediately, and the sleeps still finish.
  obs::json::Value ack = parseResponse(daemon.handleLine(
      "{\"schema\":\"pdw-req-1\",\"type\":\"shutdown\",\"id\":\"sd\"}"));
  EXPECT_EQ(str(ack, "status"), "ok");
  EXPECT_TRUE(daemon.shutdownRequested());
  t0.join();
  t1.join();
  EXPECT_EQ(str(parseResponse(replies[0]), "status"), "ok");
  EXPECT_EQ(str(parseResponse(replies[1]), "status"), "ok");

  // New work after shutdown is rejected, never queued.
  obs::json::Value late = parseResponse(daemon.handleLine(sleepLine("s2", 5)));
  EXPECT_EQ(str(late, "status"), "rejected");
  daemon.shutdown();
}

// ---- PdwdConcurrency (TSAN target) ---------------------------------------

/// The cross-socket extension of the PR 1 determinism guarantee: N clients
/// sending the same request concurrently — caches off, so each lane runs
/// the full pipeline — receive byte-identical canonical plans. Kinase act-1
/// proves optimality well inside the node budget, so termination is
/// optimality-driven and a sanitizer slowdown cannot change the plan.
TEST(PdwdConcurrency, ConcurrentClientsGetByteIdenticalPlans) {
  constexpr int kClients = 4;
  DaemonOptions options;
  options.lanes = kClients;
  options.threads = 1;
  Daemon daemon(options);

  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&daemon, &responses, i] {
      responses[static_cast<std::size_t>(i)] = daemon.handleLine(
          solveLine("cc" + std::to_string(i), "Kinase act-1",
                    ",\"budget_s\":60,\"cache\":false"));
    });
  for (std::thread& t : clients) t.join();
  daemon.shutdown();

  std::string reference;
  for (int i = 0; i < kClients; ++i) {
    const obs::json::Value doc =
        parseResponse(responses[static_cast<std::size_t>(i)]);
    EXPECT_EQ(str(doc, "status"), "ok") << responses[i];
    EXPECT_FALSE(boolean(doc, "warm"));
    const std::string plan = str(doc, "plan");
    ASSERT_FALSE(plan.empty()) << responses[i];
    if (reference.empty()) reference = plan;
    EXPECT_EQ(plan, reference) << "client " << i << " diverged";
  }
}

/// The invalidate-coherence contract (TSAN target): the route-cache epoch
/// bumps BEFORE the plan-cache version, both under invalidate_mutex_, on
/// every invalidation path. An observer that reads the version first and
/// the epoch second must therefore never see the version ahead of the
/// epoch — the regression this pins was two independent bumps with a
/// window where a lane could warm-hit a new-generation plan while route
/// lookups still served pre-invalidation paths.
TEST(PdwdConcurrency, InvalidateAdvancesRouteEpochBeforePlanVersion) {
  constexpr int kInvalidators = 2;
  constexpr int kPerThread = 50;
  DaemonOptions options;
  options.lanes = 2;
  options.threads = 1;
  Daemon daemon(options);
  const std::uint64_t v0 = daemon.cacheVersion();
  const std::uint64_t e0 = daemon.routeCacheEpoch();

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        // Read order matters: version first, epoch second. The writer
        // bumps epoch first, so a coherent daemon can only over-report
        // the epoch here, never under-report it.
        const std::uint64_t version = daemon.cacheVersion();
        const std::uint64_t epoch = daemon.routeCacheEpoch();
        if (epoch - e0 < version - v0)
          violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int t = 0; t < kInvalidators; ++t)
    threads.emplace_back([&daemon, t] {
      for (int i = 0; i < kPerThread; ++i)
        daemon.handleLine(
            "{\"schema\":\"pdw-req-1\",\"type\":\"invalidate\",\"id\":\"i" +
            std::to_string(t) + "-" + std::to_string(i) + "\"}");
    });
  for (int t = kInvalidators; t-- > 0;) {
    threads.back().join();
    threads.pop_back();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(daemon.cacheVersion(), v0 + kInvalidators * kPerThread);
  EXPECT_EQ(daemon.routeCacheEpoch(), e0 + kInvalidators * kPerThread);

  // The admission bumpTo path obeys the same contract: a client-driven
  // version jump advances the epoch exactly once, route first.
  const std::uint64_t v1 = daemon.cacheVersion();
  const std::uint64_t e1 = daemon.routeCacheEpoch();
  parseResponse(daemon.handleLine(
      sleepLine("bump", 1, ",\"cache_version\":" + std::to_string(v1 + 5))));
  EXPECT_EQ(daemon.cacheVersion(), v1 + 5);
  EXPECT_EQ(daemon.routeCacheEpoch(), e1 + 1);
  daemon.shutdown();
}

// ---- PdwdOverload --------------------------------------------------------

TEST(PdwdOverload, QueueFullRejects) {
  const obs::MetricsSnapshot baseline = obs::Registry::instance().snapshot();
  DaemonOptions options;
  options.lanes = 1;
  options.queue_capacity = 1;
  options.threads = 1;
  Daemon daemon(options);

  // Occupy the single lane; wait until it has actually dequeued the job.
  std::string reply_a, reply_b;
  std::thread ta([&] { reply_a = daemon.handleLine(sleepLine("a", 1200)); });
  awaitTrue(
      [&] {
        return histCount(obs::Registry::instance().snapshot().since(baseline),
                         obs::names::kPdwdQueueWaitSeconds) >= 1;
      },
      "the first sleep to reach the lane");

  // Fill the one queue slot; wait until the queue-depth gauge shows it.
  std::thread tb([&] { reply_b = daemon.handleLine(sleepLine("b", 5)); });
  awaitTrue(
      [&] {
        return obs::Registry::instance()
                   .snapshot()
                   .gauge(obs::names::kPdwdQueueDepth) >= 1.0;
      },
      "the second sleep to be queued");

  // The queue is full: the third request is rejected immediately.
  obs::json::Value rejected =
      parseResponse(daemon.handleLine(sleepLine("c", 5)));
  EXPECT_EQ(str(rejected, "status"), "rejected");
  EXPECT_EQ(counterDelta(baseline, obs::names::kPdwdRejectedQueueFull), 1);

  ta.join();
  tb.join();
  EXPECT_EQ(str(parseResponse(reply_a), "status"), "ok");
  EXPECT_EQ(str(parseResponse(reply_b), "status"), "ok");
  daemon.shutdown();
}

TEST(PdwdOverload, DeadlineExpiresInQueue) {
  const obs::MetricsSnapshot baseline = obs::Registry::instance().snapshot();
  DaemonOptions options;
  options.lanes = 1;
  options.queue_capacity = 4;
  options.threads = 1;
  Daemon daemon(options);

  // Hold the lane for 800 ms; the follow-up request's 50 ms deadline must
  // expire while it waits (even if the holder was dequeued instantly, it
  // occupies the lane far past the deadline).
  std::string holder;
  std::thread th([&] { holder = daemon.handleLine(sleepLine("hold", 800)); });
  awaitTrue(
      [&] {
        return histCount(obs::Registry::instance().snapshot().since(baseline),
                         obs::names::kPdwdQueueWaitSeconds) >= 1;
      },
      "the holder to reach the lane");

  obs::json::Value late = parseResponse(
      daemon.handleLine(sleepLine("late", 5, ",\"deadline_ms\":50")));
  EXPECT_EQ(str(late, "status"), "deadline");
  EXPECT_GE(num(late, "queue_ms"), 50.0);
  EXPECT_EQ(counterDelta(baseline, obs::names::kPdwdDeadlineExpired), 1);

  th.join();
  EXPECT_EQ(str(parseResponse(holder), "status"), "ok");
  daemon.shutdown();
}

TEST(PdwdOverload, TinyBudgetAnswersBudgetHitWithPlan) {
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  Daemon daemon(options);

  // A 50 ms scheduling budget cannot prove optimality on PCR, but the
  // pipeline still returns a feasible plan — budget_hit, never an error.
  obs::json::Value doc = parseResponse(
      daemon.handleLine(solveLine("tb", "PCR", ",\"budget_s\":0.05")));
  EXPECT_EQ(str(doc, "status"), "budget_hit");
  EXPECT_FALSE(boolean(doc, "proven_optimal"));
  EXPECT_FALSE(str(doc, "plan").empty());
  EXPECT_GT(num(doc, "n_wash"), 0.0);
  daemon.shutdown();
}

// ---- RouteCacheEpoch (TSAN target) ---------------------------------------

arch::FlowPath epochPath(int n) {
  std::vector<arch::Cell> cells;
  for (int i = 0; i < n; ++i) cells.push_back({i, 1});
  return arch::FlowPath(std::move(cells));
}

core::RouteKey epochKey(std::uint64_t fingerprint) {
  core::RouteKey key;
  key.chip_fingerprint = fingerprint;
  key.targets = {{5, 6}};
  return key;
}

TEST(RouteCacheEpoch, StaleInsertIsDropped) {
  core::RouteCache cache(8);
  const std::uint64_t e0 = cache.epoch();

  // Same-epoch insert lands.
  EXPECT_TRUE(cache.insert(epochKey(1), epochPath(2), e0));
  EXPECT_EQ(cache.size(), 1u);

  // invalidate() clears, bumps the epoch, and counts.
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.epoch(), e0 + 1);
  EXPECT_FALSE(cache.lookup(epochKey(1)).has_value());

  // An insert computed under the old epoch must not repopulate the new one.
  EXPECT_FALSE(cache.insert(epochKey(2), epochPath(3), e0));
  EXPECT_EQ(cache.size(), 0u);

  const core::RouteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale_drops, 1);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(stats.inserts, 1);  // only the pre-invalidation insert landed
}

TEST(RouteCacheEpoch, MemoizedFailureSurvivesEpochDiscipline) {
  core::RouteCache cache(4);
  // A memoized routing *failure* (inner nullopt) obeys the same epoch rule.
  EXPECT_TRUE(cache.insert(epochKey(9), std::nullopt, cache.epoch()));
  const auto cached = cache.lookup(epochKey(9));
  ASSERT_TRUE(cached.has_value());
  EXPECT_FALSE(cached->has_value());
  cache.invalidate();
  EXPECT_FALSE(cache.lookup(epochKey(9)).has_value());
}

/// Readers and epoch-guarded writers race a repeated invalidator. The
/// invariants: no torn reads (TSAN), every insert either lands in its own
/// epoch or is dropped as stale, and a final invalidation leaves the cache
/// empty with a consistent epoch count.
TEST(RouteCacheEpoch, ConcurrentInvalidationIsSafe) {
  core::RouteCache cache(64);
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 300;
  constexpr int kInvalidations = 40;

  std::atomic<std::int64_t> attempted{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&cache, &attempted, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::uint64_t fp =
            static_cast<std::uint64_t>(w) * kOpsPerWriter +
            static_cast<std::uint64_t>(i % 17);
        const std::uint64_t epoch = cache.epoch();
        if (!cache.lookup(epochKey(fp)).has_value()) {
          cache.insert(epochKey(fp), epochPath(2), epoch);
          attempted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  threads.emplace_back([&cache] {
    for (int i = 0; i < kInvalidations; ++i) {
      cache.invalidate();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  const core::RouteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts + stats.stale_drops, attempted.load());
  EXPECT_EQ(stats.invalidations, kInvalidations);
  EXPECT_EQ(cache.epoch(), static_cast<std::uint64_t>(kInvalidations));

  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
}

// ---- PlanCacheVersion ----------------------------------------------------

service::PlanKey planKey(std::uint64_t n) {
  service::PlanKey key;
  key.chip_fingerprint = n;
  key.schedule_fingerprint = n * 31;
  key.config_fingerprint = 7;
  return key;
}

service::CachedPlan cachedPlan(const std::string& status) {
  service::CachedPlan plan;
  plan.status = status;
  plan.n_wash = 2;
  plan.plan = "ops;0,d0,0,1|tasks";
  plan.proven_optimal = status == "ok";
  return plan;
}

TEST(PlanCacheVersion, VersionedInsertAndStaleDrop) {
  service::PlanCache cache(4);
  EXPECT_EQ(cache.version(), 0u);

  // Budget-capped outcomes are first-class cacheable results.
  EXPECT_TRUE(cache.insert(planKey(1), cachedPlan("budget_hit"), 0));
  const auto hit = cache.lookup(planKey(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, "budget_hit");
  EXPECT_FALSE(hit->proven_optimal);

  EXPECT_EQ(cache.invalidate(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(planKey(1)).has_value());

  // Stale insert (computed under version 0) is dropped.
  EXPECT_FALSE(cache.insert(planKey(2), cachedPlan("ok"), 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stale_drops, 1);
}

TEST(PlanCacheVersion, BumpToOnlyMovesForward) {
  service::PlanCache cache(4);
  ASSERT_TRUE(cache.insert(planKey(1), cachedPlan("ok"), 0));

  // A bump to a higher target clears and lands exactly on the target.
  EXPECT_EQ(cache.bumpTo(5), 5u);
  EXPECT_EQ(cache.size(), 0u);

  // Equal or lower targets are no-ops (repeated client bumps converge).
  ASSERT_TRUE(cache.insert(planKey(2), cachedPlan("ok"), 5));
  EXPECT_EQ(cache.bumpTo(5), 5u);
  EXPECT_EQ(cache.bumpTo(3), 5u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheVersion, LruEvictsBeyondCapacity) {
  service::PlanCache cache(2);
  EXPECT_TRUE(cache.insert(planKey(1), cachedPlan("ok"), 0));
  EXPECT_TRUE(cache.insert(planKey(2), cachedPlan("ok"), 0));
  ASSERT_TRUE(cache.lookup(planKey(1)).has_value());  // refresh 1's recency
  EXPECT_TRUE(cache.insert(planKey(3), cachedPlan("ok"), 0));
  EXPECT_FALSE(cache.lookup(planKey(2)).has_value());  // 2 was the LRU
  EXPECT_TRUE(cache.lookup(planKey(1)).has_value());
  EXPECT_TRUE(cache.lookup(planKey(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

// ---- PdwdSocket ----------------------------------------------------------

TEST(PdwdSocket, RoundTripOversizeRecoveryAndShutdown) {
  DaemonOptions options;
  options.lanes = 1;
  options.threads = 1;
  Daemon daemon(options);
  const std::string path =
      "/tmp/pdw_test_" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(daemon, path);
  std::thread accept_loop([&server] { server.run(); });

  service::LineClient client;
  awaitTrue([&] { return client.connect(path); }, "socket connect", 10.0);

  // Ping round trip.
  std::optional<std::string> response = client.roundTrip(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"p\"}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(str(parseResponse(*response), "type"), "ping");

  // A solve through the real transport.
  response = client.roundTrip(sleepLine("s", 20));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(str(parseResponse(*response), "status"), "ok");

  // An oversized line gets the structured error and — the part framing has
  // to get right — the connection stays usable afterwards.
  response = client.roundTrip(std::string(service::kMaxRequestBytes + 64, 'x'));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(str(parseResponse(*response), "code"), "oversize");
  response = client.roundTrip(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"p2\"}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(str(parseResponse(*response), "status"), "ok");

  // A client that hangs up before reading its response must not bring the
  // daemon down: the connection thread's write sees EPIPE (MSG_NOSIGNAL),
  // never a process-fatal SIGPIPE. Several in a row to make a racy escape
  // unlikely, then prove the daemon is still alive on the first connection.
  for (int i = 0; i < 3; ++i) {
    service::LineClient impatient;
    awaitTrue([&] { return impatient.connect(path); }, "impatient connect",
              10.0);
    ASSERT_TRUE(impatient.send(sleepLine("gone-" + std::to_string(i), 30)));
    impatient.close();  // disconnect with the response still unwritten
  }
  response = client.roundTrip(
      "{\"schema\":\"pdw-req-1\",\"type\":\"ping\",\"id\":\"alive\"}");
  ASSERT_TRUE(response.has_value()) << "daemon died after client hangups";
  EXPECT_EQ(str(parseResponse(*response), "status"), "ok");

  // A shutdown request ends the accept loop; run() joins and returns.
  response = client.roundTrip(
      "{\"schema\":\"pdw-req-1\",\"type\":\"shutdown\",\"id\":\"sd\"}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(str(parseResponse(*response), "type"), "shutdown");
  client.close();
  accept_loop.join();
  EXPECT_TRUE(daemon.shutdownRequested());
  daemon.shutdown();
  ::unlink(path.c_str());
}

}  // namespace
