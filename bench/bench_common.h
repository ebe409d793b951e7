// Shared plumbing of the reproduction benches: run PDW and DAWO on every
// Table-II benchmark and collect the paper's metrics, plus the common
// observability command-line surface (--trace-out / --metrics-out /
// --run-store / --label / --flight-out) every bench binary accepts.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "assay/benchmarks.h"
#include "baseline/dawo.h"
#include "core/pipeline.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/runs.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/validator.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"

namespace pdw::bench {

/// The shared observability flags of the bench binaries. Usage:
///
///   ObsArgs obs_args;
///   for (int i = 1; i < argc; ++i)
///     if (!obs_args.consume(argc, argv, i)) ...bench-specific flags...
///   obs_args.applyStartup();
///   ...workload...
///   obs_args.finish();
///
/// `--run-store` appends `pdw-run-1` records (obs/runs.h); the bench fills
/// a RunRecord via makeRunRecord() and calls appendRunRecord().
struct ObsArgs {
  std::string trace_out;    ///< Chrome trace JSON path (enables tracing)
  std::string metrics_out;  ///< pdw-metrics-1 registry export path
  std::string run_store;    ///< pdw-run-1 JSONL store to append to
  std::string label = "default";  ///< record label inside the run store
  std::string flight_out;   ///< pdw-flight-1 JSONL path (dump every solve)

  /// Consume argv[i] when it is one of the shared flags (both `--flag=v`
  /// and `--flag v` spellings); returns false for bench-specific arguments.
  bool consume(int argc, char** argv, int& i) {
    const auto take = [&](const char* flag, std::string* out) {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) != 0) return false;
      if (argv[i][len] == '=') {
        *out = argv[i] + len + 1;
        return true;
      }
      if (argv[i][len] == '\0' && i + 1 < argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    return take("--trace-out", &trace_out) ||
           take("--metrics-out", &metrics_out) ||
           take("--run-store", &run_store) || take("--label", &label) ||
           take("--flight-out", &flight_out);
  }

  /// Flight config for the solver stages when --flight-out was given
  /// (enabled, dump every solve); a disabled config otherwise.
  obs::FlightConfig flightConfig() const {
    obs::FlightConfig config;
    if (!flight_out.empty()) {
      config.enabled = true;
      config.path = flight_out;
      config.dump_all = true;
    }
    return config;
  }

  void applyStartup() const {
    if (!trace_out.empty()) obs::setTracingEnabled(true);
  }

  /// Write the trace / metrics exports after the workload ran.
  void finish() const {
    if (!trace_out.empty() && !obs::writeTraceJson(trace_out))
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out.c_str());
    if (!metrics_out.empty() &&
        !obs::Registry::instance().writeJson(metrics_out))
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_out.c_str());
  }
};

/// A run record pre-stamped with everything environmental — label, bench
/// binary, timestamp, git SHA, build flags, current registry snapshot. The
/// caller fills `config`, `quick` and the rows.
inline obs::RunRecord makeRunRecord(const ObsArgs& args,
                                    std::string bench_name) {
  obs::RunRecord record;
  record.label = args.label;
  record.bench = std::move(bench_name);
  record.timestamp = obs::timestampUtc();
  record.git_sha = obs::currentGitSha();
  record.build = obs::buildDescription();
  record.metrics = obs::Registry::instance().snapshot();
  return record;
}

/// Append `record` to the store named by --run-store (no-op without the
/// flag). Returns false only on I/O failure.
inline bool appendRunRecord(const ObsArgs& args,
                            const obs::RunRecord& record) {
  if (args.run_store.empty()) return true;
  const obs::RunStore store(args.run_store);
  if (!store.append(record)) {
    std::fprintf(stderr, "failed to append run record to %s\n",
                 args.run_store.c_str());
    return false;
  }
  std::fprintf(stderr, "run record '%s' appended to %s (%zu rows)\n",
               record.label.c_str(), args.run_store.c_str(),
               record.rows.size());
  return true;
}

/// Bench-wide PDW budgets: a few seconds per scheduling ILP, one second per
/// wash-path ILP (the paper ran a 15-minute Gurobi budget; these benches
/// demonstrate the same best-effort semantics at laptop scale).
inline core::PdwOptions defaultBenchOptions() {
  core::PdwOptions options;
  options.solver.schedule.time_limit_seconds = 4.0;
  options.solver.path.time_limit_seconds = 1.0;
  return options;
}

struct BenchmarkRun {
  std::string name;
  int ops = 0;
  int devices = 0;
  int edges = 0;
  double base_t_assay = 0.0;
  sim::WashMetrics dawo;
  sim::WashMetrics pdw;
  wash::WashPlanResult pdw_plan;   // for ablation detail
  wash::WashPlanResult dawo_plan;
  bool valid = false;
};

inline BenchmarkRun runBenchmark(
    assay::BenchmarkId id,
    const core::PdwOptions& options = defaultBenchOptions()) {
  BenchmarkRun run;
  assay::Benchmark b = assay::makeBenchmark(id);
  run.name = b.name;
  run.ops = b.graph->numOps();
  run.devices = arch::totalDevices(b.library);
  run.edges = b.graph->totalEdgeCount();

  synth::SynthResult base =
      synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));
  run.base_t_assay = base.schedule.completionTime();

  run.pdw_plan = Pipeline(options).run(base.schedule).plan;
  run.dawo_plan = baseline::runDawo(base.schedule);
  run.pdw = sim::computeMetrics(run.pdw_plan.schedule, base.schedule);
  run.dawo = sim::computeMetrics(run.dawo_plan.schedule, base.schedule);

  sim::ValidatorOptions tol;
  tol.time_tol = 1e-4;
  run.valid = sim::validateSchedule(run.pdw_plan.schedule, tol).ok() &&
              sim::validateSchedule(run.dawo_plan.schedule, tol).ok();
  return run;
}

inline std::vector<BenchmarkRun> runAll(
    const core::PdwOptions& options = defaultBenchOptions()) {
  std::vector<BenchmarkRun> runs;
  for (assay::BenchmarkId id : assay::allBenchmarks())
    runs.push_back(runBenchmark(id, options));
  return runs;
}

}  // namespace pdw::bench
