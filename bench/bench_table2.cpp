// Reproduces Table II of the paper: DAWO vs PathDriver-Wash on the eight
// benchmarks — N_wash, L_wash (mm), T_delay (s), T_assay (s) with per-row
// improvement percentages and column averages.
//
// Absolute values come from our synthesis substrate (paper: closed-source
// PathDriver+ schedules on the authors' testbed); the comparison shape —
// PDW dominating or tying DAWO on every metric of every row — is the
// reproduction target (see EXPERIMENTS.md).
// Accepts the shared observability flags (bench_common.h): --run-store=FILE
// appends one `pdw-run-1` record with the PDW columns of every row,
// --trace-out / --metrics-out export the trace and the metrics registry,
// --flight-out dumps the solver lanes' flight recordings.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pdw;
  using util::fixed;
  using util::improvementPercent;

  bench::ObsArgs obs_args;
  for (int i = 1; i < argc; ++i) {
    if (!obs_args.consume(argc, argv, i)) {
      std::fprintf(stderr, "bench_table2: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  obs_args.applyStartup();

  core::PdwOptions options = bench::defaultBenchOptions();
  options.solver.schedule.flight = obs_args.flightConfig();
  options.solver.path.flight = options.solver.schedule.flight;

  std::vector<bench::BenchmarkRun> runs = bench::runAll(options);

  util::Table table({"Benchmark", "|O|/|D|/|E|", "Nw DAWO", "Nw PDW",
                     "Nw Im%", "Lw DAWO", "Lw PDW", "Lw Im%", "Td DAWO",
                     "Td PDW", "Td Im%", "Ta DAWO", "Ta PDW", "Ta Im%"});
  table.setTitle(
      "Table II: Comparison between PathDriver-Wash (PDW) and DAWO "
      "(N_wash / L_wash mm / T_delay s / T_assay s)");

  double sum_n = 0, sum_l = 0, sum_d = 0, sum_a = 0;
  int rows = 0;
  bool all_valid = true;
  for (const bench::BenchmarkRun& run : runs) {
    const auto& d = run.dawo;
    const auto& p = run.pdw;
    table.addRow({run.name,
                  util::format("%d/%d/%d", run.ops, run.devices, run.edges),
                  util::format("%d", d.n_wash), util::format("%d", p.n_wash),
                  improvementPercent(d.n_wash, p.n_wash),
                  fixed(d.l_wash_mm, 0), fixed(p.l_wash_mm, 0),
                  improvementPercent(d.l_wash_mm, p.l_wash_mm),
                  fixed(d.t_delay, 0), fixed(p.t_delay, 0),
                  improvementPercent(d.t_delay, p.t_delay),
                  fixed(d.t_assay, 0), fixed(p.t_assay, 0),
                  improvementPercent(d.t_assay, p.t_assay)});
    sum_n += d.n_wash > 0 ? (d.n_wash - p.n_wash) / double(d.n_wash) : 0;
    sum_l += d.l_wash_mm > 0 ? (d.l_wash_mm - p.l_wash_mm) / d.l_wash_mm : 0;
    sum_d += d.t_delay > 0 ? (d.t_delay - p.t_delay) / d.t_delay : 0;
    sum_a += d.t_assay > 0 ? (d.t_assay - p.t_assay) / d.t_assay : 0;
    ++rows;
    all_valid = all_valid && run.valid;
  }
  table.addSeparator();
  table.addRow({"Average", "-", "-", "-", fixed(100.0 * sum_n / rows, 2),
                "-", "-", fixed(100.0 * sum_l / rows, 2), "-", "-",
                fixed(100.0 * sum_d / rows, 2), "-", "-",
                fixed(100.0 * sum_a / rows, 2)});
  table.render(std::cout);

  std::cout << "\nPaper averages for reference: N_wash 17.73%, L_wash "
               "24.56%, T_delay 33.10%, T_assay 9.28%\n";
  std::cout << "All schedules validator-clean: " << (all_valid ? "yes" : "NO")
            << "\n";

  if (!obs_args.run_store.empty()) {
    obs::RunRecord record = bench::makeRunRecord(obs_args, "bench_table2");
    record.config = options.solver.fingerprint();
    for (const bench::BenchmarkRun& run : runs) {
      obs::RunRow row;
      row.name = run.name;
      row.family = "table2";
      row.values = {
          {"n_wash", static_cast<double>(run.pdw.n_wash)},
          {"l_wash_mm", run.pdw.l_wash_mm},
          {"t_delay_s", run.pdw.t_delay},
          {"t_assay_s", run.pdw.t_assay},
      };
      record.rows.push_back(std::move(row));
    }
    if (!bench::appendRunRecord(obs_args, record)) return 1;
  }
  obs_args.finish();
  return all_valid ? 0 : 1;
}
