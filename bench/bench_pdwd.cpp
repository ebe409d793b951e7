// bench_pdwd — load generator for the pdwd wash-optimization daemon.
//
//   bench_pdwd [--quick] [--passes N] [--clients N] [--budget S]
//              [--connect SOCKET | (in-process daemon)] [--shutdown]
//              [--json-out FILE] [--scrape-out FILE]
//              [--expect-warm-rate R] [--expect-warm-speedup X]
//              [--run-store FILE --label NAME] [--metrics-out FILE]
//
// Replays the Table-II benchmark mix (--quick: the three smallest) against
// a daemon, `--passes` times over. Pass 0 is the cold pass — every request
// misses the shared plan cache and runs the full pipeline; later passes
// should be served warm. Requests within a pass are distributed round-robin
// over `--clients` concurrent client threads, with a barrier between
// passes so the warm passes never race the cold one.
//
// Reports per-benchmark and aggregate latency (cold p50, warm p50/p99) and
// the warm service rate, emits the rows as a `pdw-bench-1` document
// (--json-out) and as run-store rows (--run-store/--label) for pdw_report
// gating. Row metrics, all lower-is-better:
//   wall_seconds    total request wall time of the row's benchmark
//   cold_ms         pass-0 latency
//   warm_p50_ms / warm_p99_ms
//   warm_miss_rate  warm-pass requests NOT served from the plan cache,
//                   over warm-pass requests (0 when every repeat hit)
//
// In-process mode (no --connect) hosts the Daemon in this process and
// calls Daemon::handleLine directly — no sockets involved, used by quick
// local runs. --connect PATH speaks the line protocol to a running
// `pdwd --socket PATH` over its unix socket with one connection per
// client thread — the tier1.sh smoke stage mode. --scrape-out saves the
// daemon's own metrics (a metrics-request scrape) for obs_check --pdwd;
// --shutdown sends a shutdown request once done (stops the daemon).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"

namespace {

using pdw::obs::json::Value;

struct Sample {
  std::string benchmark;
  int pass = 0;
  double latency_ms = 0.0;
  bool warm = false;
  std::string status;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_pdwd [--quick] [--passes N] [--clients N] [--budget S]\n"
      "                  [--connect SOCKET] [--shutdown] [--json-out FILE]\n"
      "                  [--scrape-out FILE] [--expect-warm-rate R]\n"
      "                  [--expect-warm-speedup X] [--trace-out FILE]\n"
      "                  [--metrics-out FILE] [--run-store FILE] "
      "[--label NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pdw::bench::ObsArgs obs_args;
  bool quick = false, shutdown_daemon = false;
  int passes = 3, clients = 2;
  double budget_s = 0.0;  // 0: daemon default
  double expect_warm_rate = -1.0, expect_warm_speedup = -1.0;
  std::string connect_path, json_out, scrape_out;

  for (int i = 1; i < argc; ++i) {
    if (obs_args.consume(argc, argv, i)) continue;
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--shutdown") {
      shutdown_daemon = true;
    } else if (const char* v = value("--passes")) {
      passes = std::atoi(v);
    } else if (const char* v = value("--clients")) {
      clients = std::atoi(v);
    } else if (const char* v = value("--budget")) {
      budget_s = std::atof(v);
    } else if (const char* v = value("--connect")) {
      connect_path = v;
    } else if (const char* v = value("--json-out")) {
      json_out = v;
    } else if (const char* v = value("--scrape-out")) {
      scrape_out = v;
    } else if (const char* v = value("--expect-warm-rate")) {
      expect_warm_rate = std::atof(v);
    } else if (const char* v = value("--expect-warm-speedup")) {
      expect_warm_speedup = std::atof(v);
    } else {
      return usage();
    }
  }
  passes = std::max(1, passes);
  clients = std::max(1, clients);
  obs_args.applyStartup();

  // --quick keeps to three benchmarks whose cold solves finish fast, so
  // the smoke stage measures cache behavior, not solver tails.
  std::vector<std::string> mix;
  for (pdw::assay::BenchmarkId id : pdw::assay::allBenchmarks())
    mix.push_back(pdw::assay::toString(id));
  if (quick) mix = {"PCR", "Kinase act-1", "Synthetic1"};

  // Transport: one in-process daemon shared by every client thread, or one
  // socket connection per client.
  std::optional<pdw::service::Daemon> daemon;
  std::vector<pdw::service::LineClient> sockets(
      static_cast<std::size_t>(clients));
  if (connect_path.empty()) {
    pdw::service::DaemonOptions options;
    options.lanes = clients;
    if (!obs_args.flight_out.empty())
      options.flight = obs_args.flightConfig();
    daemon.emplace(options);
  } else {
    for (auto& socket : sockets)
      if (!socket.connect(connect_path)) {
        std::fprintf(stderr, "bench_pdwd: cannot connect to %s\n",
                     connect_path.c_str());
        return 2;
      }
  }
  const auto transport =
      [&](int client, const std::string& line) -> std::optional<std::string> {
    if (daemon) return daemon->handleLine(line);
    return sockets[static_cast<std::size_t>(client)].roundTrip(line);
  };

  // The workload: passes x mix, round-robin over the client threads with a
  // barrier between passes (pass 0 must finish cold before pass 1 warms).
  std::vector<Sample> samples;
  std::mutex samples_mutex;
  bool transport_failed = false;
  int request_seq = 0;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      std::vector<std::string> share;
      for (std::size_t b = 0; b < mix.size(); ++b)
        if (static_cast<int>(b) % clients == c) share.push_back(mix[b]);
      if (share.empty()) continue;
      threads.emplace_back([&, c, pass, share] {
        for (const std::string& name : share) {
          std::ostringstream req;
          req << "{\"schema\":\"pdw-req-1\",\"type\":\"solve\",\"id\":\"b"
              << pass << "-" << c << "\",\"benchmark\":"
              << pdw::obs::json::quote(name);
          if (budget_s > 0.0) req << ",\"budget_s\":" << budget_s;
          req << "}";
          const auto t0 = std::chrono::steady_clock::now();
          const std::optional<std::string> response =
              transport(c, req.str());
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          std::lock_guard<std::mutex> lock(samples_mutex);
          if (!response) {
            transport_failed = true;
            continue;
          }
          Sample sample;
          sample.benchmark = name;
          sample.pass = pass;
          sample.latency_ms = ms;
          const auto doc = pdw::obs::json::parse(*response);
          if (doc) {
            const Value* status = doc->find("status");
            const Value* warm = doc->find("warm");
            if (status && status->isString()) sample.status = status->string;
            sample.warm = warm && warm->kind == Value::Kind::Bool &&
                          warm->boolean;
          }
          samples.push_back(std::move(sample));
          ++request_seq;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  (void)request_seq;

  if (transport_failed) {
    std::fprintf(stderr, "bench_pdwd: transport failure mid-run\n");
    return 1;
  }

  // Aggregate per benchmark and overall.
  int failures = 0;
  std::vector<double> cold_all, warm_all;
  long long warm_requests = 0, warm_served = 0;
  struct Row {
    double wall_s = 0.0, cold_ms = 0.0;
    std::vector<double> warm_ms;
    long long warm_hits = 0, warm_misses = 0;
  };
  std::map<std::string, Row> rows;
  for (const Sample& sample : samples) {
    if (sample.status != "ok" && sample.status != "budget_hit") {
      std::fprintf(stderr, "bench_pdwd: %s pass %d ended '%s'\n",
                   sample.benchmark.c_str(), sample.pass,
                   sample.status.c_str());
      ++failures;
      continue;
    }
    Row& row = rows[sample.benchmark];
    row.wall_s += sample.latency_ms / 1000.0;
    if (sample.pass == 0) {
      row.cold_ms = sample.latency_ms;
      cold_all.push_back(sample.latency_ms);
    } else {
      row.warm_ms.push_back(sample.latency_ms);
      warm_all.push_back(sample.latency_ms);
      ++warm_requests;
      if (sample.warm) {
        ++row.warm_hits;
        ++warm_served;
      } else {
        ++row.warm_misses;
      }
    }
  }

  const double cold_p50 = percentile(cold_all, 50);
  const double warm_p50 = percentile(warm_all, 50);
  const double warm_p99 = percentile(warm_all, 99);
  const double warm_rate =
      warm_requests == 0
          ? 0.0
          : static_cast<double>(warm_served) /
                static_cast<double>(warm_requests);

  std::printf("bench_pdwd: %zu benchmarks x %d passes, %d client(s)%s\n",
              mix.size(), passes, clients,
              connect_path.empty() ? " (in-process)" : "");
  std::printf("  %-14s %10s %12s %12s %6s\n", "benchmark", "cold_ms",
              "warm_p50_ms", "warm_p99_ms", "warm");
  for (const auto& [name, row] : rows)
    std::printf("  %-14s %10.1f %12.2f %12.2f %3lld/%lld\n", name.c_str(),
                row.cold_ms, percentile(row.warm_ms, 50),
                percentile(row.warm_ms, 99), row.warm_hits,
                row.warm_hits + row.warm_misses);
  std::printf(
      "  overall: cold p50 %.1f ms, warm p50 %.2f ms, warm p99 %.2f ms, "
      "warm rate %.3f, speedup %.1fx\n",
      cold_p50, warm_p50, warm_p99, warm_rate,
      warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0);

  // `pdw-bench-1` document with one record per benchmark.
  std::ostringstream doc;
  doc << "{\"schema\":\"pdw-bench-1\",\"bench\":\"bench_pdwd\",\"quick\":"
      << (quick ? "true" : "false") << ",\"passes\":" << passes
      << ",\"clients\":" << clients << ",\"benchmarks\":[";
  bool first = true;
  double total_wall = 0.0;
  for (const auto& [name, row] : rows) {
    const double miss_rate =
        row.warm_hits + row.warm_misses == 0
            ? 0.0
            : static_cast<double>(row.warm_misses) /
                  static_cast<double>(row.warm_hits + row.warm_misses);
    if (!first) doc << ",";
    first = false;
    total_wall += row.wall_s;
    doc << "{\"name\":" << pdw::obs::json::quote(name)
        << ",\"wall_seconds\":" << row.wall_s
        << ",\"cold_ms\":" << row.cold_ms
        << ",\"warm_p50_ms\":" << percentile(row.warm_ms, 50)
        << ",\"warm_p99_ms\":" << percentile(row.warm_ms, 99)
        << ",\"warm_miss_rate\":" << miss_rate << "}";
  }
  doc << "],\"totals\":{\"wall_seconds\":" << total_wall
      << ",\"warm_rate\":" << warm_rate << "}}";
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    out << doc.str() << "\n";
    if (!out)
      std::fprintf(stderr, "bench_pdwd: failed to write %s\n",
                   json_out.c_str());
  }

  // Run-store rows for pdw_report gating.
  if (!obs_args.run_store.empty()) {
    pdw::obs::RunRecord record =
        pdw::bench::makeRunRecord(obs_args, "bench_pdwd");
    record.quick = quick;
    record.config = "passes=" + std::to_string(passes) +
                    " clients=" + std::to_string(clients);
    for (const auto& [name, row] : rows) {
      pdw::obs::RunRow run_row;
      run_row.name = name;
      run_row.family = "pdwd";
      run_row.values["wall_seconds"] = row.wall_s;
      run_row.values["cold_ms"] = row.cold_ms;
      run_row.values["warm_p50_ms"] = percentile(row.warm_ms, 50);
      run_row.values["warm_p99_ms"] = percentile(row.warm_ms, 99);
      run_row.values["warm_miss_rate"] =
          row.warm_hits + row.warm_misses == 0
              ? 0.0
              : static_cast<double>(row.warm_misses) /
                    static_cast<double>(row.warm_hits + row.warm_misses);
      record.rows.push_back(std::move(run_row));
    }
    pdw::bench::appendRunRecord(obs_args, record);
  }

  // Scrape the daemon's own metrics (meaningful in both modes: in-process
  // the daemon shares our registry, over a socket it answers the scrape).
  if (!scrape_out.empty()) {
    const std::optional<std::string> scrape = transport(
        0, "{\"schema\":\"pdw-req-1\",\"type\":\"metrics\",\"id\":\"m\"}");
    if (scrape) {
      std::ofstream out(scrape_out, std::ios::binary);
      out << *scrape << "\n";
    } else {
      std::fprintf(stderr, "bench_pdwd: metrics scrape failed\n");
      ++failures;
    }
  }
  if (shutdown_daemon) {
    transport(0,
              "{\"schema\":\"pdw-req-1\",\"type\":\"shutdown\",\"id\":\"s\"}");
    if (daemon) daemon->shutdown();
  }

  if (expect_warm_rate >= 0.0 && warm_rate < expect_warm_rate) {
    std::fprintf(stderr,
                 "bench_pdwd: FAIL warm rate %.3f < expected %.3f\n",
                 warm_rate, expect_warm_rate);
    ++failures;
  }
  if (expect_warm_speedup >= 0.0 &&
      (warm_p50 <= 0.0 || cold_p50 / warm_p50 < expect_warm_speedup)) {
    std::fprintf(stderr,
                 "bench_pdwd: FAIL warm speedup %.2fx < expected %.2fx\n",
                 warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0,
                 expect_warm_speedup);
    ++failures;
  }

  obs_args.finish();
  return failures == 0 ? 0 : 1;
}
