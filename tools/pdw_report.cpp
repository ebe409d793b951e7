// pdw_report — regression/improvement comparator over the run-record store.
//
//   pdw_report --store runs.jsonl --list
//   pdw_report --store runs.jsonl --label current --against-label baseline
//   pdw_report --store runs.jsonl --label current --against BENCH_ilp.json
//             [--max-regression 10%] [--metrics wall_seconds,nodes]
//             [--min-wall 0.05]
//
// Loads the `pdw-run-1` store (obs/runs.h), picks the latest record of
// `--label`, and diffs it against either another label's latest record or a
// frozen `pdw-bench-1` document (bench_ilp_solver --json-out, e.g. the
// committed BENCH_ilp.json baseline; the schema is sniffed). Rows are
// aligned by name; each configured metric (all lower-is-better) regresses
// when it grows more than --max-regression percent over the baseline, with
// a wall-clock noise floor (--min-wall) under which timing jitter never
// counts. Prints one table row per (benchmark, metric) pair and a summary.
//
// Exit codes, for scripting: 0 = no regression, 1 = at least one row
// regressed past the threshold, 2 = usage / I/O / missing-label error.
// scripts/tier1.sh gates the quick solver bench on exit 0/1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/runs.h"

namespace {

using pdw::obs::DiffThresholds;
using pdw::obs::RowDiff;
using pdw::obs::RunDiff;
using pdw::obs::RunRecord;
using pdw::obs::RunStore;

int usage() {
  std::fprintf(
      stderr,
      "usage: pdw_report --store FILE.jsonl (--list |\n"
      "         --label NAME (--against-label NAME | --against BENCH.json)\n"
      "         [--max-regression PCT[%%]] [--metrics a,b,c] "
      "[--min-wall S])\n"
      "exit codes: 0 = no regression, 1 = regression, 2 = error\n");
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Load `--against FILE`: a pdw-run-1 line/record or a pdw-bench-1
/// document, sniffed by schema tag.
std::optional<RunRecord> loadAgainstFile(const std::string& path) {
  const std::string text = slurp(path);
  if (text.empty()) {
    std::fprintf(stderr, "pdw_report: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  const auto doc = pdw::obs::json::parse(text);
  if (doc) {
    if (auto rec = pdw::obs::runRecordFromBenchDoc(*doc)) return rec;
    if (auto rec = RunRecord::fromJson(*doc)) return rec;
  }
  // Not a single JSON document: maybe a pdw-run-1 store — take the last
  // parseable record.
  const std::vector<RunRecord> records = RunStore(path).loadAll();
  if (!records.empty()) return records.back();
  std::fprintf(stderr,
               "pdw_report: %s is neither pdw-bench-1 nor pdw-run-1\n",
               path.c_str());
  return std::nullopt;
}

std::vector<std::string> splitCommas(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

void listStore(const RunStore& store) {
  const std::vector<RunRecord> records = store.loadAll();
  std::printf("%-20s %-18s %-20s %-10s %s\n", "label", "bench",
              "timestamp", "git", "rows");
  for (const RunRecord& r : records)
    std::printf("%-20s %-18s %-20s %-10s %zu\n", r.label.c_str(),
                r.bench.c_str(), r.timestamp.c_str(), r.git_sha.c_str(),
                r.rows.size());
  std::printf("%zu record(s) in %s\n", records.size(), store.path().c_str());
}

int report(const RunRecord& base, const RunRecord& current,
           const DiffThresholds& thresholds) {
  std::printf("pdw_report: %s (%s, %s) vs baseline %s (%s)\n",
              current.label.c_str(), current.git_sha.c_str(),
              current.timestamp.c_str(),
              base.label.empty() ? "<baseline>" : base.label.c_str(),
              base.bench.c_str());
  if (!current.config.empty())
    std::printf("  config: %s\n", current.config.c_str());

  const RunDiff diff = pdw::obs::diffRuns(base, current, thresholds);
  std::printf("%-28s %-20s %14s %14s %9s\n", "benchmark", "metric",
              "baseline", "current", "delta");
  for (const RowDiff& row : diff.rows) {
    char pct[32];
    if (std::isfinite(row.pct))
      std::snprintf(pct, sizeof(pct), "%+.1f%%", row.pct);
    else
      std::snprintf(pct, sizeof(pct), "+inf");
    std::printf("%-28s %-20s %14.4g %14.4g %9s%s\n", row.name.c_str(),
                row.metric.c_str(), row.base, row.current, pct,
                row.regressed ? "  << REGRESSED" : "");
  }
  std::printf(
      "pdw_report: %d common row(s), %zu compared pair(s), %d "
      "regression(s) (threshold +%.1f%%)\n",
      diff.common_rows, diff.rows.size(), diff.regressions,
      thresholds.max_regression_pct);
  if (diff.common_rows == 0) {
    std::fprintf(stderr,
                 "pdw_report: baseline and current share no row names\n");
    return 2;
  }
  return diff.anyRegression() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_path, label, against_label, against_file;
  std::string metrics_csv, max_regression, min_wall;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      if (arg.compare(0, len, flag) != 0) return nullptr;
      if (arg.size() > len && arg[len] == '=') return arg.c_str() + len + 1;
      if (arg.size() == len && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--store")) {
      store_path = v;
    } else if (const char* v = value("--label")) {
      label = v;
    } else if (const char* v = value("--against-label")) {
      against_label = v;
    } else if (const char* v = value("--against")) {
      against_file = v;
    } else if (const char* v = value("--max-regression")) {
      max_regression = v;
    } else if (const char* v = value("--metrics")) {
      metrics_csv = v;
    } else if (const char* v = value("--min-wall")) {
      min_wall = v;
    } else if (arg == "--list") {
      list = true;
    } else {
      return usage();
    }
  }
  if (store_path.empty()) return usage();

  const RunStore store(store_path);
  if (list) {
    listStore(store);
    return 0;
  }
  if (label.empty() || (against_label.empty() && against_file.empty()))
    return usage();

  DiffThresholds thresholds;
  if (!max_regression.empty()) {
    // "10", "10%", "12.5%" all accepted.
    thresholds.max_regression_pct = std::atof(max_regression.c_str());
    if (thresholds.max_regression_pct <= 0.0) {
      std::fprintf(stderr, "pdw_report: bad --max-regression '%s'\n",
                   max_regression.c_str());
      return 2;
    }
  }
  if (!metrics_csv.empty()) thresholds.metrics = splitCommas(metrics_csv);
  if (!min_wall.empty()) thresholds.min_wall_seconds = std::atof(min_wall.c_str());

  const std::optional<RunRecord> current = store.findLabel(label);
  if (!current) {
    std::fprintf(stderr, "pdw_report: label '%s' not found in %s\n",
                 label.c_str(), store_path.c_str());
    return 2;
  }

  std::optional<RunRecord> base;
  if (!against_label.empty()) {
    base = store.findLabel(against_label);
    if (!base) {
      std::fprintf(stderr, "pdw_report: label '%s' not found in %s\n",
                   against_label.c_str(), store_path.c_str());
      return 2;
    }
  } else {
    base = loadAgainstFile(against_file);
    if (!base) return 2;
  }

  return report(*base, *current, thresholds);
}
