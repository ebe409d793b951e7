// obs_check — validates pdw_cli's observability exports (scripts/tier1.sh).
//
//   obs_check --trace t.json --metrics m.json [--expect-workers N]
//   obs_check --bench b.json [--expect-warm-hits]
//   obs_check --flight f.jsonl [--metrics m.json]
//   obs_check --pdwd scrape.json [--expect-solves N] [--expect-warm-solves]
//   obs_check --resolve m.json
//
// Resolve checks: the `pdw.resolve.*` metrics (raw export or scrape line),
// as documented in obs/metric_names.h — at least one request, errors <=
// requests, and the latency histogram count equals the successful resolves
// (requests - errors).
//
// Pdwd checks: the daemon's `pdwd.*` request-accounting counters, read from
// a raw pdw-metrics-1 export or straight from a `pdw-resp-1` metrics-scrape
// response line. Validates the outcome-partition invariant (solve_ok +
// budget_hits + deadline_expired + rejected_queue_full <= requests), that
// plan-cache hits never exceed completed solves, and optionally an exact
// completed-solve count / a warm-serve requirement.
//
// Flight checks: a `pdw-flight-1` JSONL stream (obs/flight.h) — every line
// parses, solve headers carry lane/status/wall/counts/dropped/events, each
// header is followed by exactly its `events` event lines with known kinds
// and increasing seq, and sum(counts) == dropped + events per block. When
// --metrics is also given, the stream is reconciled against the registry
// export: canonical-lane node_open == ilp.bb.nodes, canonical warm_miss ==
// ilp.simplex.warm_misses, canonical cut_added == ilp.cuts.added (the root
// separation loop records one event per materialized cut into the solve's
// recorder), and solve headers <= ilp.bb.solves (pure-LP solves carry no
// recorder). Exact only when the producing process dumped every solve
// (--flight-out / dump_all) — which is how tier1.sh drives it.
//
// Trace checks: parses as Chrome trace_event JSON (object form), every
// event carries ph/ts/pid/tid, begin/end counts balance with proper nesting
// per thread, the four pipeline stage spans and at least one per-operation
// wash_op span are present, and (with --expect-workers) N distinct
// pdw-worker threads are registered. Metrics checks: schema tag plus the
// core solver/pipeline keys with sane values. Bench checks: a `pdw-bench-1`
// document from `bench_ilp_solver --json-out` — schema tag, per-benchmark
// records with non-negative solver readings, totals consistent with the
// records, and (with --expect-warm-hits) a strictly positive warm-hit rate.
// Baseline comparisons live in tools/pdw_report (per-row diffs against the
// run-record store or a frozen pdw-bench-1 document). Exits non-zero with
// one line per failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using pdw::obs::json::Value;

int failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "obs_check: FAIL: %s\n", message.c_str());
  ++failures;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void checkTrace(const std::string& path, int expect_workers) {
  const std::string text = slurp(path);
  if (text.empty()) return fail("trace file empty or unreadable: " + path);
  const auto doc = pdw::obs::json::parse(text);
  if (!doc || !doc->isObject()) return fail("trace is not a JSON object");
  const Value* events = doc->find("traceEvents");
  if (!events || !events->isArray())
    return fail("trace has no traceEvents array");

  // Per-tid span stack: every E must close the most recent B on its thread.
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, int> begins, ends;
  std::set<std::string> span_names;
  std::set<std::string> worker_names;
  int wash_ops = 0;
  for (const Value& e : events->array) {
    const Value* ph = e.find("ph");
    const Value* tid = e.find("tid");
    if (!ph || !ph->isString() || !tid || !tid->isNumber()) {
      fail("event missing ph or tid");
      continue;
    }
    const int t = static_cast<int>(tid->number);
    const Value* name = e.find("name");
    const std::string n = name && name->isString() ? name->string : "";
    if (ph->string == "M") {
      if (n == "thread_name") {
        const Value* args = e.find("args");
        const Value* tn = args ? args->find("name") : nullptr;
        if (tn && tn->isString() &&
            tn->string.rfind("pdw-worker-", 0) == 0)
          worker_names.insert(tn->string);
      }
      continue;
    }
    if (!e.find("ts") || !e.find("ts")->isNumber())
      fail("event missing numeric ts");
    if (!e.find("pid") || !e.find("pid")->isNumber())
      fail("event missing numeric pid");
    if (ph->string == "B") {
      ++begins[t];
      stacks[t].push_back(n);
      span_names.insert(n);
      if (n.rfind("wash_op#", 0) == 0) ++wash_ops;
    } else if (ph->string == "E") {
      ++ends[t];
      if (stacks[t].empty()) {
        fail("unbalanced E on tid " + std::to_string(t));
      } else {
        if (!n.empty() && stacks[t].back() != n)
          fail("E '" + n + "' does not close B '" + stacks[t].back() +
               "' on tid " + std::to_string(t));
        stacks[t].pop_back();
      }
    }
  }
  for (const auto& [t, stack] : stacks)
    if (!stack.empty())
      fail("tid " + std::to_string(t) + " left " +
           std::to_string(stack.size()) + " span(s) open ('" + stack.back() +
           "')");
  for (const auto& [t, b] : begins)
    if (b != ends[t])
      fail("tid " + std::to_string(t) + " has " + std::to_string(b) +
           " begins but " + std::to_string(ends[t]) + " ends");

  for (const char* stage : {"run", "necessity_analysis", "clustering",
                            "routing", "scheduling"})
    if (!span_names.count(stage))
      fail(std::string("missing pipeline stage span '") + stage + "'");
  if (wash_ops < 1) fail("no wash_op spans (expected one per routed wash)");
  if (static_cast<int>(worker_names.size()) < expect_workers)
    fail("expected >= " + std::to_string(expect_workers) +
         " pdw-worker threads, found " +
         std::to_string(worker_names.size()));
}

void checkMetrics(const std::string& path, bool expect_pool) {
  const std::string text = slurp(path);
  if (text.empty()) return fail("metrics file empty or unreadable: " + path);
  const auto doc = pdw::obs::json::parse(text);
  if (!doc || !doc->isObject()) return fail("metrics is not a JSON object");
  const Value* schema = doc->find("schema");
  if (!schema || !schema->isString() || schema->string != "pdw-metrics-1")
    fail("metrics schema tag is not 'pdw-metrics-1'");
  const Value* metrics = doc->find("metrics");
  if (!metrics || !metrics->isObject())
    return fail("metrics has no 'metrics' object");

  std::vector<const char*> required = {
      "pdw.necessity.targets", "pdw.cluster.operations",
      "pdw.path_ilp.solves",   "pdw.route_cache.misses",
      "ilp.bb.solves",         "ilp.bb.nodes",
      "ilp.simplex.calls",     "ilp.simplex.iterations",
      "ilp.solve_seconds"};
  // A sequential (--threads 1) run never constructs the pool, so its
  // counters legitimately don't exist; require them only alongside
  // --expect-workers.
  if (expect_pool) required.push_back("pool.tasks_executed");
  for (const char* key : required) {
    const Value* entry = metrics->find(key);
    if (!entry || !entry->isObject()) {
      fail(std::string("missing metric '") + key + "'");
      continue;
    }
    const Value* type = entry->find("type");
    if (!type || !type->isString())
      fail(std::string("metric '") + key + "' has no type");
    const Value* reading = entry->find(
        type && type->string == "histogram" ? "count" : "value");
    if (!reading || !reading->isNumber() || reading->number < 0)
      fail(std::string("metric '") + key +
           "' has no non-negative reading");
  }

  // Latency summary for the log: every histogram's count and estimated
  // p50/p90/p99 (exported since the percentile fields landed in
  // pdw-metrics-1; their absence is a failure — stale producer).
  for (const auto& [name, entry] : metrics->object) {
    const Value* type = entry.find("type");
    if (!type || !type->isString() || type->string != "histogram") continue;
    const Value* count = entry.find("count");
    double percentiles[3] = {0, 0, 0};
    bool have = true;
    const char* keys[3] = {"p50", "p90", "p99"};
    for (int i = 0; i < 3; ++i) {
      const Value* p = entry.find(keys[i]);
      if (p && p->isNumber()) {
        percentiles[i] = p->number;
      } else {
        fail("histogram '" + name + "' has no numeric '" + keys[i] + "'");
        have = false;
      }
    }
    if (have)
      std::fprintf(stderr,
                   "obs_check: histogram %-30s count %8.0f  p50 %10.3g  "
                   "p90 %10.3g  p99 %10.3g\n",
                   name.c_str(),
                   count && count->isNumber() ? count->number : -1.0,
                   percentiles[0], percentiles[1], percentiles[2]);
  }
}

// ---- flight stream (`pdw-flight-1` JSONL) --------------------------------

/// Per-kind totals of a flight stream, split by lane, plus the header count.
struct FlightTotals {
  std::map<std::string, std::map<std::string, double>> by_lane;
  int solve_headers = 0;
};

FlightTotals checkFlight(const std::string& path) {
  FlightTotals totals;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("flight file unreadable: " + path);
    return totals;
  }

  static const std::set<std::string> known_kinds = {
      "solve_begin", "node_open",   "node_solved",     "node_pruned",
      "node_branched", "incumbent", "bound_delta",     "warm_miss",
      "refactorization", "dual_stall", "cut_added"};

  std::string line;
  int line_no = 0;
  // Current block state: how many event lines the last header still owes,
  // its per-kind retained tally (to cross-check against counts+dropped).
  long long events_due = 0;
  double counts_sum = 0, dropped = 0, events_declared = 0;
  double last_seq = -1;
  std::string block_desc;

  const auto closeBlock = [&] {
    if (events_due > 0)
      fail(block_desc + ": declared " + std::to_string(events_declared) +
           " events but the block ended " + std::to_string(events_due) +
           " short");
    if (counts_sum != dropped + events_declared)
      fail(block_desc + ": counts sum to " + std::to_string(counts_sum) +
           " but dropped+events = " +
           std::to_string(dropped + events_declared));
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto doc = pdw::obs::json::parse(line);
    if (!doc || !doc->isObject()) {
      fail("flight line " + std::to_string(line_no) + " is not JSON");
      continue;
    }
    const Value* type = doc->find("type");
    if (!type || !type->isString()) {
      fail("flight line " + std::to_string(line_no) + " has no 'type'");
      continue;
    }

    if (type->string == "solve") {
      closeBlock();
      ++totals.solve_headers;
      block_desc = "flight solve block at line " + std::to_string(line_no);
      const Value* schema = doc->find("schema");
      if (!schema || !schema->isString() || schema->string != "pdw-flight-1")
        fail(block_desc + ": schema tag is not 'pdw-flight-1'");
      const Value* lane = doc->find("lane");
      const std::string lane_name =
          lane && lane->isString() ? lane->string : "<missing>";
      if (lane_name == "<missing>") fail(block_desc + ": no 'lane'");
      if (!doc->find("status") || !doc->find("status")->isString())
        fail(block_desc + ": no string 'status'");
      const Value* wall = doc->find("wall_seconds");
      if (!wall || !wall->isNumber() || wall->number < 0)
        fail(block_desc + ": no non-negative 'wall_seconds'");

      counts_sum = 0;
      const Value* counts = doc->find("counts");
      if (counts && counts->isObject()) {
        for (const auto& [kind, v] : counts->object) {
          if (!known_kinds.count(kind))
            fail(block_desc + ": unknown event kind '" + kind + "'");
          if (!v.isNumber() || v.number < 0) {
            fail(block_desc + ": count '" + kind + "' is not a number");
            continue;
          }
          counts_sum += v.number;
          totals.by_lane[lane_name][kind] += v.number;
        }
      } else {
        fail(block_desc + ": no 'counts' object");
      }
      const Value* dropped_v = doc->find("dropped");
      const Value* events_v = doc->find("events");
      dropped = dropped_v && dropped_v->isNumber() ? dropped_v->number : -1;
      events_declared =
          events_v && events_v->isNumber() ? events_v->number : -1;
      if (dropped < 0) fail(block_desc + ": no numeric 'dropped'");
      if (events_declared < 0) fail(block_desc + ": no numeric 'events'");
      events_due = static_cast<long long>(events_declared);
      last_seq = -1;
    } else if (type->string == "event") {
      if (totals.solve_headers == 0) {
        fail("flight line " + std::to_string(line_no) +
             ": event before any solve header");
        continue;
      }
      if (--events_due < 0)
        fail("flight line " + std::to_string(line_no) +
             ": more event lines than the header declared");
      const Value* kind = doc->find("kind");
      if (!kind || !kind->isString() || !known_kinds.count(kind->string))
        fail("flight line " + std::to_string(line_no) +
             ": unknown event kind");
      for (const char* key : {"seq", "t_us", "node", "value", "extra"})
        if (!doc->find(key) || !doc->find(key)->isNumber())
          fail("flight line " + std::to_string(line_no) +
               ": no numeric '" + key + "'");
      const Value* seq = doc->find("seq");
      if (seq && seq->isNumber()) {
        if (seq->number <= last_seq)
          fail("flight line " + std::to_string(line_no) +
               ": seq not increasing within the block");
        last_seq = seq->number;
      }
    } else {
      fail("flight line " + std::to_string(line_no) + ": unknown type '" +
           type->string + "'");
    }
  }
  closeBlock();
  if (totals.solve_headers == 0)
    fail("flight stream has no solve headers: " + path);
  return totals;
}

/// Reconcile flight per-kind totals against a pdw-metrics-1 export. Exact
/// when the producing process dumped every solve (dump_all), which
/// tier1.sh guarantees.
void reconcileFlight(const FlightTotals& totals,
                     const std::string& metrics_path) {
  const std::string text = slurp(metrics_path);
  const auto doc = pdw::obs::json::parse(text);
  if (!doc || !doc->isObject()) return;  // checkMetrics already failed it
  const Value* metrics = doc->find("metrics");
  if (!metrics || !metrics->isObject()) return;

  const auto counterValue = [&](const char* name) -> double {
    const Value* entry = metrics->find(name);
    const Value* v = entry ? entry->find("value") : nullptr;
    return v && v->isNumber() ? v->number : 0.0;
  };
  const auto laneKind = [&](const char* lane, const char* kind) -> double {
    const auto lit = totals.by_lane.find(lane);
    if (lit == totals.by_lane.end()) return 0.0;
    const auto kit = lit->second.find(kind);
    return kit == lit->second.end() ? 0.0 : kit->second;
  };
  const auto expectEqual = [&](const char* what, double flight,
                               double registry) {
    if (flight != registry)
      fail(std::string("flight/registry mismatch: ") + what + " " +
           std::to_string(flight) + " (flight) != " +
           std::to_string(registry) + " (registry)");
    else
      std::fprintf(stderr, "obs_check: flight %-38s %12.0f == registry\n",
                   what, flight);
  };

  expectEqual("canonical node_open vs ilp.bb.nodes",
              laneKind("canonical", "node_open"), counterValue("ilp.bb.nodes"));
  expectEqual("canonical warm_miss vs ilp.simplex.warm_misses",
              laneKind("canonical", "warm_miss"),
              counterValue("ilp.simplex.warm_misses"));
  expectEqual("canonical cut_added vs ilp.cuts.added",
              laneKind("canonical", "cut_added"),
              counterValue("ilp.cuts.added"));

  const double solves = counterValue("ilp.bb.solves");
  if (static_cast<double>(totals.solve_headers) > solves)
    fail("flight stream has " + std::to_string(totals.solve_headers) +
         " solve headers but the registry counted only " +
         std::to_string(solves) + " ilp.bb.solves");
  else
    std::fprintf(stderr,
                 "obs_check: flight solve headers %d <= ilp.bb.solves %.0f\n",
                 totals.solve_headers, solves);
}

// ---- pdwd daemon counters (`pdwd.*`) -------------------------------------

/// Validate the pdwd request-accounting counters of a pdw-metrics-1 export.
/// The file may be either a raw registry export or one `pdw-resp-1` metrics
/// response line (the scrape embeds the export as its `metrics` member), so
/// tier1.sh can feed a scraped response straight in. Checks the partition
/// invariant documented in obs/metric_names.h: every admitted solve ends as
/// exactly one of solve_ok / budget_hits / deadline_expired, so those plus
/// rejected_queue_full can never exceed pdwd.requests; plan-cache hits can
/// only come from completed solves.
void checkPdwd(const std::string& path, long long expect_solves,
               bool expect_warm_solves) {
  const std::string text = slurp(path);
  if (text.empty()) return fail("pdwd file empty or unreadable: " + path);
  auto doc = pdw::obs::json::parse(text);
  if (!doc && text.find('\n') != std::string::npos)
    doc = pdw::obs::json::parse(text.substr(0, text.find('\n')));
  if (!doc || !doc->isObject()) return fail("pdwd file is not a JSON object");

  const Value* root = &*doc;
  const Value* schema = root->find("schema");
  if (schema && schema->isString() && schema->string == "pdw-resp-1") {
    root = root->find("metrics");
    if (!root || !root->isObject())
      return fail("pdwd response has no embedded 'metrics' object");
  }
  schema = root->find("schema");
  if (!schema || !schema->isString() || schema->string != "pdw-metrics-1")
    fail("pdwd metrics schema tag is not 'pdw-metrics-1'");
  const Value* metrics = root->find("metrics");
  if (!metrics || !metrics->isObject())
    return fail("pdwd export has no 'metrics' object");

  const auto counter = [&](const char* name, bool required) -> double {
    const Value* entry = metrics->find(name);
    const Value* v = entry ? entry->find("value") : nullptr;
    if (!v || !v->isNumber() || v->number < 0) {
      if (required)
        fail(std::string("missing or negative pdwd counter '") + name + "'");
      return 0.0;
    }
    return v->number;
  };

  const double requests = counter("pdwd.requests", true);
  const double ok = counter("pdwd.solve_ok", true);
  const double budget = counter("pdwd.budget_hits", false);
  const double deadline = counter("pdwd.deadline_expired", false);
  const double rejected = counter("pdwd.rejected_queue_full", false);
  const double hits = counter("pdwd.plan_cache.hits", false);
  const double misses = counter("pdwd.plan_cache.misses", false);

  if (ok + budget + deadline + rejected > requests)
    fail("pdwd outcome counters exceed pdwd.requests: " +
         std::to_string(ok + budget + deadline + rejected) + " > " +
         std::to_string(requests));
  if (hits > ok + budget)
    fail("pdwd.plan_cache.hits " + std::to_string(hits) +
         " exceeds completed solves " + std::to_string(ok + budget));
  if (expect_solves >= 0 &&
      static_cast<long long>(ok + budget) != expect_solves)
    fail("expected exactly " + std::to_string(expect_solves) +
         " completed pdwd solves, counted " +
         std::to_string(static_cast<long long>(ok + budget)));
  if (expect_warm_solves && hits <= 0)
    fail("expected pdwd.plan_cache.hits > 0 (no warm solve ever served)");
  std::fprintf(stderr,
               "obs_check: pdwd requests %.0f = ok %.0f + budget %.0f + "
               "deadline %.0f + rejected %.0f + other; plan cache %0.f/%.0f "
               "warm\n",
               requests, ok, budget, deadline, rejected, hits, hits + misses);
}

// ---- resolve counters (`pdw.resolve.*`) ----------------------------------

/// Validate the resolve metrics documented in obs/metric_names.h against a
/// pdw-metrics-1 export (raw, or embedded in a `pdw-resp-1` metrics-scrape
/// line, same as --pdwd): the latency histogram observes each successful
/// resolve exactly once (errors bump requests but nothing else).
void checkResolve(const std::string& path) {
  const std::string text = slurp(path);
  if (text.empty()) return fail("resolve file empty or unreadable: " + path);
  auto doc = pdw::obs::json::parse(text);
  if (!doc && text.find('\n') != std::string::npos)
    doc = pdw::obs::json::parse(text.substr(0, text.find('\n')));
  if (!doc || !doc->isObject())
    return fail("resolve file is not a JSON object");

  const Value* root = &*doc;
  const Value* schema = root->find("schema");
  if (schema && schema->isString() && schema->string == "pdw-resp-1") {
    root = root->find("metrics");
    if (!root || !root->isObject())
      return fail("resolve response has no embedded 'metrics' object");
  }
  schema = root->find("schema");
  if (!schema || !schema->isString() || schema->string != "pdw-metrics-1")
    fail("resolve metrics schema tag is not 'pdw-metrics-1'");
  const Value* metrics = root->find("metrics");
  if (!metrics || !metrics->isObject())
    return fail("resolve export has no 'metrics' object");

  // Counters register lazily on first increment, so a clean run never
  // materializes the error counter — missing means zero there.
  const auto counter = [&](const char* name, bool required = true) -> double {
    const Value* entry = metrics->find(name);
    const Value* v = entry ? entry->find("value") : nullptr;
    if (!v || !v->isNumber() || v->number < 0) {
      if (required)
        fail(std::string("missing or negative resolve counter '") + name +
             "'");
      return 0.0;
    }
    return v->number;
  };

  const double requests = counter("pdw.resolve.requests");
  const double errors = counter("pdw.resolve.errors", false);

  if (requests <= 0)
    fail("pdw.resolve.requests is zero (no resolve was ever attempted)");
  if (errors > requests)
    fail("pdw.resolve.errors " + std::to_string(errors) +
         " exceeds pdw.resolve.requests " + std::to_string(requests));

  const Value* seconds = metrics->find("pdw.resolve.seconds");
  const Value* count = seconds ? seconds->find("count") : nullptr;
  const double observed = count && count->isNumber() ? count->number : -1;
  if (observed != requests - errors)
    fail("pdw.resolve.seconds count " + std::to_string(observed) +
         " != successful resolves " + std::to_string(requests - errors));
  std::fprintf(stderr, "obs_check: resolve requests %.0f (errors %.0f)\n",
               requests, errors);
}

void checkBench(const std::string& path, bool expect_warm_hits) {
  const std::string text = slurp(path);
  if (text.empty()) return fail("bench file empty or unreadable: " + path);
  const auto doc = pdw::obs::json::parse(text);
  if (!doc || !doc->isObject()) return fail("bench is not a JSON object");
  const Value* schema = doc->find("schema");
  if (!schema || !schema->isString() || schema->string != "pdw-bench-1")
    fail("bench schema tag is not 'pdw-bench-1'");
  const Value* benchmarks = doc->find("benchmarks");
  if (!benchmarks || !benchmarks->isArray() || benchmarks->array.empty())
    return fail("bench has no non-empty 'benchmarks' array");

  const std::vector<const char*> numeric_keys = {
      "wall_seconds", "mip_solves",  "nodes",    "simplex_iterations",
      "warm_hits",    "warm_misses", "dual_pivots", "rc_fixed"};
  std::map<std::string, double> sums;
  for (const Value& b : benchmarks->array) {
    const Value* name = b.find("name");
    const std::string n =
        name && name->isString() ? name->string : "<unnamed>";
    if (n == "<unnamed>") fail("benchmark record without a name");
    for (const char* key : numeric_keys) {
      const Value* v = b.find(key);
      if (!v || !v->isNumber() || v->number < 0) {
        fail("benchmark '" + n + "' has no non-negative '" + key + "'");
        continue;
      }
      sums[key] += v->number;
    }
  }

  const Value* totals = doc->find("totals");
  if (!totals || !totals->isObject())
    return fail("bench has no 'totals' object");
  for (const char* key : numeric_keys) {
    const Value* v = totals->find(key);
    if (!v || !v->isNumber()) {
      fail(std::string("totals has no numeric '") + key + "'");
      continue;
    }
    // The solver counters are exact integers; wall_seconds is a float sum
    // of values serialized at ~6 significant digits, so its tolerance must
    // absorb the per-record rounding.
    const double tol = std::strcmp(key, "wall_seconds") == 0
                           ? 0.01 + 1e-3 * std::abs(v->number)
                           : 0.5;
    if (std::abs(v->number - sums[key]) > tol)
      fail(std::string("totals['") + key + "'] does not equal the sum of " +
           "the per-benchmark records");
  }
  if (expect_warm_hits) {
    const Value* hits = totals->find("warm_hits");
    if (!hits || !hits->isNumber() || hits->number <= 0)
      fail("expected totals.warm_hits > 0 (warm dual path never taken)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path, bench_path, flight_path, pdwd_path;
  std::string resolve_path;
  bool expect_warm_hits = false;
  bool expect_warm_solves = false;
  long long expect_solves = -1;
  int expect_workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      const char* v = next();
      if (v) trace_path = v;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v) metrics_path = v;
    } else if (arg == "--expect-workers") {
      const char* v = next();
      if (v) expect_workers = std::atoi(v);
    } else if (arg == "--bench") {
      const char* v = next();
      if (v) bench_path = v;
    } else if (arg == "--flight") {
      const char* v = next();
      if (v) flight_path = v;
    } else if (arg == "--expect-warm-hits") {
      expect_warm_hits = true;
    } else if (arg == "--pdwd") {
      const char* v = next();
      if (v) pdwd_path = v;
    } else if (arg == "--resolve") {
      const char* v = next();
      if (v) resolve_path = v;
    } else if (arg == "--expect-solves") {
      const char* v = next();
      if (v) expect_solves = std::atoll(v);
    } else if (arg == "--expect-warm-solves") {
      expect_warm_solves = true;
    } else {
      std::fprintf(stderr,
                   "usage: obs_check [--trace FILE] [--metrics FILE] "
                   "[--expect-workers N] [--bench FILE] "
                   "[--flight FILE.jsonl] [--expect-warm-hits] "
                   "[--pdwd FILE] [--resolve FILE] [--expect-solves N] "
                   "[--expect-warm-solves]\n");
      return 2;
    }
  }
  if (trace_path.empty() && metrics_path.empty() && bench_path.empty() &&
      flight_path.empty() && pdwd_path.empty() && resolve_path.empty()) {
    std::fprintf(stderr, "obs_check: nothing to check\n");
    return 2;
  }
  if (!trace_path.empty()) checkTrace(trace_path, expect_workers);
  if (!metrics_path.empty()) checkMetrics(metrics_path, expect_workers > 0);
  if (!bench_path.empty()) checkBench(bench_path, expect_warm_hits);
  if (!flight_path.empty()) {
    const FlightTotals totals = checkFlight(flight_path);
    if (!metrics_path.empty()) reconcileFlight(totals, metrics_path);
  }
  if (!pdwd_path.empty())
    checkPdwd(pdwd_path, expect_solves, expect_warm_solves);
  if (!resolve_path.empty()) checkResolve(resolve_path);
  if (failures == 0) {
    std::fprintf(stderr, "obs_check: OK\n");
    return 0;
  }
  return 1;
}
