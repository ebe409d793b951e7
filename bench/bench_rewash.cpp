// bench_rewash — perturbation-replay load generator for online re-wash
// (Pipeline::resolve(delta)).
//
//   bench_rewash [--quick] [--deltas N] [--budget S] [--json-out FILE]
//                [--expect-speedup X] [--run-store FILE] [--label NAME]
//                [--metrics-out FILE] [--trace-out FILE]
//
// For each Table-II benchmark (--quick: three whose cold solves finish
// fast), solves the base schedule once to prime a resident pipeline,
// then replays a seeded stream of `--deltas` schedule perturbations
// (op/task delays from an LCG — deterministic, so a failure replays from
// the benchmark name and delta index alone). Every perturbation is solved
// twice:
//
//   delta  Pipeline::resolve() against the resident pipeline — full
//          necessity analysis, route-cache reuse, phase-A-only MILP
//   cold   a fresh Pipeline::run() of the byte-identical perturbed
//          schedule — the from-scratch re-solve the paper's offline flow
//          would do
//
// N_wash must agree between the two on every delta (wash count is decided
// by necessity + clustering, not by how the scheduling MILP spends its
// budget); any mismatch is a correctness failure and fails the run.
// Reports per-benchmark and overall cold vs delta p50/p99 latency and
// simplex-iteration totals, emits a `pdw-bench-1` document (--json-out)
// and run-store rows (--run-store/--label) for pdw_report gating. Row
// metrics, all lower-is-better:
//   wall_seconds      total solve wall time of the row's benchmark
//   cold_p50_ms       from-scratch re-solve latency
//   delta_p50_ms / delta_p99_ms
//   delta_iter_share  delta-path simplex iterations over cold-path ones
//                     (the ISSUE's >= 5x reduction gate at <= 0.2)
//
// --expect-speedup X fails the run unless the overall cold/delta p50 ratio
// OR the cold/delta iteration ratio reaches X.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/schedule_delta.h"
#include "obs/json.h"

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::int64_t simplexIterations() {
  return pdw::obs::Registry::instance().snapshot().counter(
      "ilp.simplex.iterations");
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_rewash [--quick] [--deltas N] [--budget S]\n"
      "                    [--json-out FILE] [--expect-speedup X]\n"
      "                    [--run-store FILE] [--label NAME]\n"
      "                    [--metrics-out FILE] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pdw::bench::ObsArgs obs_args;
  bool quick = false;
  int deltas = 4;
  double budget_s = 0.0;  // 0: bench default (4 s schedule / 1 s path)
  double expect_speedup = -1.0;
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    if (obs_args.consume(argc, argv, i)) continue;
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      quick = true;
    } else if (const char* v = value("--deltas")) {
      deltas = std::atoi(v);
    } else if (const char* v = value("--budget")) {
      budget_s = std::atof(v);
    } else if (const char* v = value("--json-out")) {
      json_out = v;
    } else if (const char* v = value("--expect-speedup")) {
      expect_speedup = std::atof(v);
    } else {
      return usage();
    }
  }
  deltas = std::max(1, deltas);
  obs_args.applyStartup();

  std::vector<pdw::assay::BenchmarkId> mix;
  for (pdw::assay::BenchmarkId id : pdw::assay::allBenchmarks())
    mix.push_back(id);
  if (quick)
    mix = {pdw::assay::BenchmarkId::Pcr, pdw::assay::BenchmarkId::KinaseAct1,
           pdw::assay::BenchmarkId::Synthetic1};

  pdw::core::PdwOptions options = pdw::bench::defaultBenchOptions();
  if (budget_s > 0.0) options.solver.schedule.time_limit_seconds = budget_s;

  struct Row {
    double wall_s = 0.0;
    std::vector<double> cold_ms, delta_ms;
    std::int64_t cold_iters = 0, delta_iters = 0;
    int mismatches = 0, invalid = 0;
  };
  std::map<std::string, Row> rows;
  int failures = 0;

  for (pdw::assay::BenchmarkId id : mix) {
    pdw::assay::Benchmark b = pdw::assay::makeBenchmark(id);
    pdw::synth::SynthResult base = pdw::synth::synthesizeOnChip(
        *b.graph, pdw::synth::placeChip(b.library));
    Row& row = rows[b.name];

    pdw::Pipeline resident(options);
    resident.run(base.schedule);

    // Seeded per-benchmark LCG: the stream replays from (name, index).
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (const char c : b.name) state = state * 31 + static_cast<unsigned char>(c);
    const auto next = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(state >> 33);
    };

    pdw::assay::AssaySchedule current = base.schedule;
    const int num_ops = static_cast<int>(current.opSchedules().size());
    const int num_tasks = static_cast<int>(current.tasks().size());
    for (int d = 0; d < deltas; ++d) {
      pdw::core::ScheduleDelta delta;
      const double seconds = 0.5 + static_cast<double>(next() % 20) * 0.25;
      if (d % 2 == 0 && num_ops > 0)
        delta.op_delays.push_back(
            {static_cast<pdw::assay::OpId>(next() % num_ops), seconds});
      else
        delta.task_delays.push_back(
            {static_cast<pdw::assay::TaskId>(next() % num_tasks), seconds});

      pdw::core::AppliedDelta applied = pdw::core::applyDelta(current, delta);
      if (!applied.valid) {
        std::fprintf(stderr, "bench_rewash: %s delta %d invalid: %s\n",
                     b.name.c_str(), d, applied.error.c_str());
        ++row.invalid;
        ++failures;
        continue;
      }

      std::int64_t iters = simplexIterations();
      auto t0 = std::chrono::steady_clock::now();
      const pdw::PdwResult warm = resident.resolve(delta);
      const double warm_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      row.delta_iters += simplexIterations() - iters;
      if (!warm.resolve.valid) {
        std::fprintf(stderr, "bench_rewash: %s delta %d rejected: %s\n",
                     b.name.c_str(), d, warm.resolve.error.c_str());
        ++row.invalid;
        ++failures;
        continue;
      }

      iters = simplexIterations();
      t0 = std::chrono::steady_clock::now();
      const pdw::PdwResult cold =
          pdw::Pipeline(options).run(applied.schedule);
      const double cold_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      row.cold_iters += simplexIterations() - iters;

      row.delta_ms.push_back(warm_ms);
      row.cold_ms.push_back(cold_ms);
      row.wall_s += (warm_ms + cold_ms) / 1000.0;
      const int n_warm = warm.schedule().washCount();
      const int n_cold = cold.schedule().washCount();
      if (n_warm != n_cold) {
        std::fprintf(stderr,
                     "bench_rewash: FAIL %s delta %d: resolve N_wash %d != "
                     "cold re-solve N_wash %d\n",
                     b.name.c_str(), d, n_warm, n_cold);
        ++row.mismatches;
        ++failures;
      }
      current = std::move(applied.schedule);
    }
  }

  // Aggregate and report.
  std::vector<double> cold_all, delta_all;
  std::int64_t cold_iters = 0, delta_iters = 0;
  double total_wall = 0.0;
  for (const auto& [name, row] : rows) {
    cold_all.insert(cold_all.end(), row.cold_ms.begin(), row.cold_ms.end());
    delta_all.insert(delta_all.end(), row.delta_ms.begin(),
                     row.delta_ms.end());
    cold_iters += row.cold_iters;
    delta_iters += row.delta_iters;
    total_wall += row.wall_s;
  }
  const double cold_p50 = percentile(cold_all, 50);
  const double delta_p50 = percentile(delta_all, 50);
  const double latency_ratio = delta_p50 > 0.0 ? cold_p50 / delta_p50 : 0.0;
  const double iter_ratio =
      delta_iters > 0 ? static_cast<double>(cold_iters) /
                            static_cast<double>(delta_iters)
                      : 0.0;

  std::printf("bench_rewash: %zu benchmarks x %d deltas%s\n", rows.size(),
              deltas, quick ? " (quick)" : "");
  std::printf("  %-14s %11s %12s %12s %11s %11s\n", "benchmark",
              "cold_p50_ms", "delta_p50_ms", "delta_p99_ms", "cold_iters",
              "delta_iters");
  for (const auto& [name, row] : rows)
    std::printf("  %-14s %11.1f %12.2f %12.2f %11lld %11lld\n", name.c_str(),
                percentile(row.cold_ms, 50), percentile(row.delta_ms, 50),
                percentile(row.delta_ms, 99),
                static_cast<long long>(row.cold_iters),
                static_cast<long long>(row.delta_iters));
  std::printf(
      "  overall: cold p50 %.1f ms, delta p50 %.2f ms (%.1fx), simplex "
      "iterations %lld vs %lld (%.1fx)\n",
      cold_p50, delta_p50, latency_ratio, static_cast<long long>(cold_iters),
      static_cast<long long>(delta_iters), iter_ratio);

  std::ostringstream doc;
  doc << "{\"schema\":\"pdw-bench-1\",\"bench\":\"bench_rewash\",\"quick\":"
      << (quick ? "true" : "false") << ",\"deltas\":" << deltas
      << ",\"benchmarks\":[";
  bool first = true;
  for (const auto& [name, row] : rows) {
    if (!first) doc << ",";
    first = false;
    const double share =
        row.cold_iters > 0 ? static_cast<double>(row.delta_iters) /
                                 static_cast<double>(row.cold_iters)
                           : 0.0;
    doc << "{\"name\":" << pdw::obs::json::quote(name)
        << ",\"wall_seconds\":" << row.wall_s
        << ",\"cold_p50_ms\":" << percentile(row.cold_ms, 50)
        << ",\"delta_p50_ms\":" << percentile(row.delta_ms, 50)
        << ",\"delta_p99_ms\":" << percentile(row.delta_ms, 99)
        << ",\"delta_iter_share\":" << share
        << ",\"nwash_mismatches\":" << row.mismatches << "}";
  }
  doc << "],\"totals\":{\"wall_seconds\":" << total_wall
      << ",\"latency_ratio\":" << latency_ratio
      << ",\"iteration_ratio\":" << iter_ratio << "}}";
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    out << doc.str() << "\n";
    if (!out)
      std::fprintf(stderr, "bench_rewash: failed to write %s\n",
                   json_out.c_str());
  }

  if (!obs_args.run_store.empty()) {
    pdw::obs::RunRecord record =
        pdw::bench::makeRunRecord(obs_args, "bench_rewash");
    record.quick = quick;
    record.config = "deltas=" + std::to_string(deltas);
    for (const auto& [name, row] : rows) {
      pdw::obs::RunRow run_row;
      run_row.name = name;
      run_row.family = "rewash";
      run_row.values["wall_seconds"] = row.wall_s;
      run_row.values["cold_p50_ms"] = percentile(row.cold_ms, 50);
      run_row.values["delta_p50_ms"] = percentile(row.delta_ms, 50);
      run_row.values["delta_p99_ms"] = percentile(row.delta_ms, 99);
      run_row.values["delta_iter_share"] =
          row.cold_iters > 0 ? static_cast<double>(row.delta_iters) /
                                   static_cast<double>(row.cold_iters)
                             : 0.0;
      run_row.values["nwash_mismatches"] = static_cast<double>(row.mismatches);
      record.rows.push_back(std::move(run_row));
    }
    pdw::bench::appendRunRecord(obs_args, record);
  }

  if (expect_speedup >= 0.0 && latency_ratio < expect_speedup &&
      iter_ratio < expect_speedup) {
    std::fprintf(stderr,
                 "bench_rewash: FAIL speedup %.2fx (latency) / %.2fx "
                 "(iterations) both below expected %.2fx\n",
                 latency_ratio, iter_ratio, expect_speedup);
    ++failures;
  }

  obs_args.finish();
  return failures == 0 ? 0 : 1;
}
