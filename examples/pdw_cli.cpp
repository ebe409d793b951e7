// pdw_cli — command-line front end of the library.
//
//   pdw_cli --benchmark PCR --method both --gantt
//   pdw_cli --all --csv
//   pdw_cli --benchmark IVD --no-type3 --no-integration --time-limit 4
//
// Runs PDW and/or DAWO on a Table-II benchmark (or all of them) and prints
// the paper's metrics, optionally as CSV or with an ASCII Gantt chart.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "assay/benchmarks.h"
#include "baseline/dawo.h"
#include "core/pipeline.h"
#include "core/schedule_delta.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/gantt.h"
#include "sim/metrics.h"
#include "sim/validator.h"
#include "synth/placer.h"
#include "synth/synthesizer.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace pdw;

struct CliOptions {
  std::vector<assay::BenchmarkId> benchmarks;
  bool run_pdw = true;
  bool run_dawo = true;
  bool gantt = false;
  bool csv = false;
  std::string trace_out;    ///< Chrome trace JSON path (enables tracing)
  std::string metrics_out;  ///< metrics registry JSON path
  std::string flight_out;   ///< flight-recorder JSONL path (dump all solves)
  double flight_slow = 0;   ///< >0: dump only solves slower than this (s)
  std::vector<std::string> resolve_deltas;  ///< --resolve-delta specs, in order
  core::PdwOptions pdw;
};

void printUsage() {
  std::cout <<
      "usage: pdw_cli [options]\n"
      "  --benchmark NAME   one of: PCR, IVD, ProteinSplit, 'Kinase act-1',\n"
      "                     'Kinase act-2', Synthetic1..3 (repeatable)\n"
      "  --all              run every Table-II benchmark\n"
      "  --method M         pdw | dawo | both (default both)\n"
      "  --alpha/--beta/--gamma X   objective weights (default .3/.3/.4)\n"
      "  --time-limit S     scheduling-ILP budget in seconds (default 8)\n"
      "  --threads N        execution lanes (default 0 = hardware\n"
      "                     concurrency; results are identical for any N)\n"
      "  --no-type1|2|3     disable a necessity exemption (ablation)\n"
      "  --no-integration   disable removal integration\n"
      "  --no-ilp-paths     BFS wash paths instead of the ILP\n"
      "  --no-ilp-schedule  greedy insertion instead of the scheduling ILP\n"
      "  --resolve-delta S  after the PDW solve, replay a perturbation\n"
      "                     through the incremental resolver (repeatable;\n"
      "                     deltas compose in order). Spec forms:\n"
      "                       op:ID:SECONDS     delay operation ID\n"
      "                       task:ID:SECONDS   delay fluidic task ID\n"
      "                       block:X:Y         block cell (x, y)\n"
      "                       remove:ID         cancel waste-bound task ID\n"
      "  --gantt            print ASCII Gantt charts\n"
      "  --csv              machine-readable output\n"
      "  --trace-out=FILE   write a Chrome trace (chrome://tracing,\n"
      "                     ui.perfetto.dev) of the run; enables tracing\n"
      "  --metrics-out=FILE write the metrics registry as JSON\n"
      "  --flight-out=FILE  dump every ILP solve's flight recording (JSONL,\n"
      "                     pdw-flight-1); the stream reconciles against\n"
      "                     the registry counters via\n"
      "                     obs_check --flight FILE --metrics M.json\n"
      "  --flight-slow=S    with --flight-out: record always but dump only\n"
      "                     solves slower than S seconds (or on budget)\n"
      "  --log-level LEVEL  trace|debug|info|warn|error|off (also via the\n"
      "                     PDW_LOG_LEVEL environment variable)\n"
      "  --log LEVEL        alias for --log-level\n";
}

/// Parse one --resolve-delta spec (see printUsage) into a ScheduleDelta.
bool parseDeltaSpec(const std::string& spec, core::ScheduleDelta* delta) {
  const std::vector<std::string> parts = util::split(spec, ':');
  const auto integer = [](const std::string& s, int* out) {
    if (s.empty() || s.size() > 9) return false;
    for (const char c : s)
      if (c < '0' || c > '9') return false;
    *out = std::atoi(s.c_str());
    return true;
  };
  int id = -1;
  if (parts.size() == 3 && (parts[0] == "op" || parts[0] == "task")) {
    const double seconds = std::atof(parts[2].c_str());
    if (!integer(parts[1], &id) || seconds <= 0.0) return false;
    if (parts[0] == "op")
      delta->op_delays.push_back({id, seconds});
    else
      delta->task_delays.push_back({id, seconds});
    return true;
  }
  if (parts.size() == 3 && parts[0] == "block") {
    int x = -1, y = -1;
    if (!integer(parts[1], &x) || !integer(parts[2], &y)) return false;
    delta->blocked_cells.push_back(arch::Cell{x, y});
    return true;
  }
  if (parts.size() == 2 && parts[0] == "remove") {
    if (!integer(parts[1], &id)) return false;
    delta->removed_tasks.push_back(id);
    return true;
  }
  return false;
}

std::optional<assay::BenchmarkId> parseBenchmark(const std::string& name) {
  for (assay::BenchmarkId id : assay::allBenchmarks())
    if (name == assay::toString(id)) return id;
  return std::nullopt;
}

std::optional<CliOptions> parseArgs(int argc, char** argv) {
  CliOptions options;
  const auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // --flag=value spelling: split once, so every flag accepts both forms.
    std::string inline_value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('=');
        eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    const auto value_of = [&](int& i) -> std::optional<std::string> {
      if (has_inline_value) return inline_value;
      const char* v = next(i);
      if (!v) return std::nullopt;
      return std::string(v);
    };
    if (arg == "--benchmark") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      const auto id = parseBenchmark(*value);
      if (!id) {
        std::cerr << "unknown benchmark '" << *value << "'\n";
        return std::nullopt;
      }
      options.benchmarks.push_back(*id);
    } else if (arg == "--all") {
      options.benchmarks = assay::allBenchmarks();
    } else if (arg == "--method") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      const std::string& m = *value;
      options.run_pdw = m == "pdw" || m == "both";
      options.run_dawo = m == "dawo" || m == "both";
      if (!options.run_pdw && !options.run_dawo) {
        std::cerr << "unknown method '" << m << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--alpha" || arg == "--beta" || arg == "--gamma" ||
               arg == "--time-limit") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      const double x = std::atof(value->c_str());
      if (arg == "--alpha") options.pdw.alpha = x;
      else if (arg == "--beta") options.pdw.beta = x;
      else if (arg == "--gamma") options.pdw.gamma = x;
      else options.pdw.withScheduleBudget(x);
    } else if (arg == "--threads") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      options.pdw.withThreads(std::atoi(value->c_str()));
    } else if (arg == "--no-type1") {
      options.pdw.necessity.enable_type1 = false;
    } else if (arg == "--no-type2") {
      options.pdw.necessity.enable_type2 = false;
    } else if (arg == "--no-type3") {
      options.pdw.necessity.enable_type3 = false;
    } else if (arg == "--no-integration") {
      options.pdw.enable_integration = false;
    } else if (arg == "--no-ilp-paths") {
      options.pdw.use_ilp_paths = false;
    } else if (arg == "--no-ilp-schedule") {
      options.pdw.use_ilp_schedule = false;
    } else if (arg == "--resolve-delta") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      core::ScheduleDelta probe;  // validate the spec shape up front
      if (!parseDeltaSpec(*value, &probe)) {
        std::cerr << "bad --resolve-delta spec '" << *value
                  << "' (op:ID:SECONDS | task:ID:SECONDS | block:X:Y | "
                     "remove:ID)\n";
        return std::nullopt;
      }
      options.resolve_deltas.push_back(*value);
    } else if (arg == "--gantt") {
      options.gantt = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--trace-out") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      options.trace_out = *value;
    } else if (arg == "--metrics-out") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      options.metrics_out = *value;
    } else if (arg == "--flight-out") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      options.flight_out = *value;
    } else if (arg == "--flight-slow") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      options.flight_slow = std::atof(value->c_str());
    } else if (arg == "--log" || arg == "--log-level") {
      const auto value = value_of(i);
      if (!value) return std::nullopt;
      util::setLogLevel(util::parseLogLevel(*value));
    } else if (arg == "--help" || arg == "-h") {
      printUsage();
      std::exit(0);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (options.benchmarks.empty())
    options.benchmarks.push_back(assay::BenchmarkId::Pcr);
  if (!options.flight_out.empty()) {
    obs::FlightConfig flight;
    flight.path = options.flight_out;
    if (options.flight_slow > 0) {
      flight.slow_solve_seconds = options.flight_slow;
    } else {
      flight.dump_all = true;
    }
    options.pdw.withFlightRecording(flight);
  } else if (options.flight_slow > 0) {
    std::cerr << "--flight-slow needs --flight-out\n";
    return std::nullopt;
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parseArgs(argc, argv);
  if (!parsed) {
    printUsage();
    return 2;
  }
  const CliOptions& options = *parsed;
  if (!options.trace_out.empty()) obs::setTracingEnabled(true);

  util::Table table({"Benchmark", "Method", "N_wash", "L_wash (mm)",
                     "T_delay (s)", "T_assay (s)", "avg wait (s)",
                     "wash time (s)", "concurrency %", "valid"});

  bool all_valid = true;
  for (assay::BenchmarkId id : options.benchmarks) {
    const assay::Benchmark b = assay::makeBenchmark(id);
    synth::SynthResult base =
        synth::synthesizeOnChip(*b.graph, synth::placeChip(b.library));

    const auto report = [&](const char* method,
                            const wash::WashPlanResult& plan) {
      const sim::WashMetrics m =
          sim::computeMetrics(plan.schedule, base.schedule);
      sim::ValidatorOptions tol;
      tol.time_tol = 1e-4;
      const bool valid = sim::validateSchedule(plan.schedule, tol).ok();
      all_valid = all_valid && valid;
      table.addRow({b.name, method, util::format("%d", m.n_wash),
                    util::fixed(m.l_wash_mm, 0), util::fixed(m.t_delay, 1),
                    util::fixed(m.t_assay, 1), util::fixed(m.avg_wait, 2),
                    util::fixed(m.total_wash_time, 1),
                    util::fixed(m.wash_concurrency * 100, 0),
                    valid ? "yes" : "NO"});
      if (options.gantt) {
        std::cout << "\n" << b.name << " / " << method << ":\n"
                  << sim::renderGantt(plan.schedule);
      }
    };

    if (options.run_pdw) {
      Pipeline pipeline(options.pdw);
      report("PDW", pipeline.run(base.schedule).plan);
      // One-shot replay: each --resolve-delta composes on the previous one
      // through the resident pipeline, exactly like a pdwd resolve stream.
      int nth = 0;
      for (const std::string& spec : options.resolve_deltas) {
        core::ScheduleDelta delta;
        parseDeltaSpec(spec, &delta);  // shape was validated at parse time
        const PdwResult result = pipeline.resolve(delta);
        ++nth;
        if (!result.resolve.valid) {
          std::cerr << "resolve-delta " << nth << " (" << spec
                    << ") rejected: " << result.resolve.error << "\n";
          all_valid = false;
          continue;
        }
        report(("PDW+d" + std::to_string(nth)).c_str(), result.plan);
        std::cerr << "resolve-delta " << nth << " (" << spec << "): "
                  << result.resolve.frontier_cells << " frontier / "
                  << result.resolve.reused_cells << " reused cells, "
                  << result.resolve.routes_reused << " routes reused"
                  << (result.resolve.full_fallback ? ", full fallback" : "")
                  << "\n";
      }
    } else if (!options.resolve_deltas.empty()) {
      std::cerr << "--resolve-delta needs the PDW method\n";
      all_valid = false;
    }
    if (options.run_dawo) report("DAWO", baseline::runDawo(base.schedule));
  }

  if (options.csv) {
    table.renderCsv(std::cout);
  } else {
    table.render(std::cout);
  }

  if (!options.trace_out.empty()) {
    if (obs::writeTraceJson(options.trace_out)) {
      std::cerr << "trace written to " << options.trace_out
                << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
    } else {
      std::cerr << "failed to write trace to " << options.trace_out << "\n";
      all_valid = false;
    }
  }
  if (!options.flight_out.empty()) {
    // Solver lanes append their dumps themselves; just point at the file.
    std::cerr << "flight recordings (per dumped solve) in "
              << options.flight_out << "\n";
  }
  if (!options.metrics_out.empty()) {
    if (obs::Registry::instance().writeJson(options.metrics_out)) {
      std::cerr << "metrics written to " << options.metrics_out << "\n";
    } else {
      std::cerr << "failed to write metrics to " << options.metrics_out
                << "\n";
      all_valid = false;
    }
  }
  return all_valid ? 0 : 1;
}
