#include "obs/runs.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace pdw::obs {

namespace {

void appendNumber(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

/// Rebuild a MetricsSnapshot from the `"metrics"` object of an embedded
/// pdw-metrics-1 export (inverse of MetricsSnapshot::toJson).
MetricsSnapshot metricsFromJson(const json::Value& metrics_object) {
  MetricsSnapshot snap;
  if (!metrics_object.isObject()) return snap;
  for (const auto& [name, entry] : metrics_object.object) {
    const json::Value* type = entry.find("type");
    if (!type || !type->isString()) continue;
    MetricValue v;
    if (type->string == "counter") {
      v.kind = MetricValue::Kind::Counter;
      if (const json::Value* value = entry.find("value");
          value && value->isNumber())
        v.count = static_cast<std::int64_t>(value->number);
    } else if (type->string == "gauge") {
      v.kind = MetricValue::Kind::Gauge;
      if (const json::Value* value = entry.find("value");
          value && value->isNumber())
        v.value = value->number;
    } else if (type->string == "histogram") {
      v.kind = MetricValue::Kind::Histogram;
      if (const json::Value* count = entry.find("count");
          count && count->isNumber())
        v.count = static_cast<std::int64_t>(count->number);
      if (const json::Value* sum = entry.find("sum");
          sum && sum->isNumber())
        v.value = sum->number;
      if (const json::Value* min = entry.find("min");
          min && min->isNumber())
        v.min = min->number;
      if (const json::Value* max = entry.find("max");
          max && max->isNumber())
        v.max = max->number;
      if (const json::Value* buckets = entry.find("buckets");
          buckets && buckets->isArray())
        for (const json::Value& b : buckets->array)
          v.buckets.push_back(
              b.isNumber() ? static_cast<std::int64_t>(b.number) : 0);
    } else {
      continue;
    }
    snap.values.emplace(name, std::move(v));
  }
  return snap;
}

std::string stringField(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  return v && v->isString() ? v->string : std::string();
}

}  // namespace

std::string RunRecord::toJson() const {
  std::string out = "{\"schema\":\"pdw-run-1\",\"label\":";
  out += json::quote(label);
  out += ",\"bench\":";
  out += json::quote(bench);
  out += ",\"timestamp\":";
  out += json::quote(timestamp);
  out += ",\"git_sha\":";
  out += json::quote(git_sha);
  out += ",\"build\":";
  out += json::quote(build);
  out += ",\"config\":";
  out += json::quote(config);
  out += ",\"quick\":";
  out += quick ? "true" : "false";
  out += ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& row = rows[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    out += json::quote(row.name);
    out += ",\"family\":";
    out += json::quote(row.family);
    out += ",\"values\":{";
    bool first = true;
    for (const auto& [key, value] : row.values) {
      if (!first) out += ',';
      first = false;
      out += json::quote(key);
      out += ':';
      appendNumber(out, value);
    }
    out += "}}";
  }
  out += "],\"metrics\":";
  // Embedded verbatim as the pdw-metrics-1 document, schema tag included.
  out += metrics.toJson();
  out += '}';
  return out;
}

std::optional<RunRecord> RunRecord::fromJson(const json::Value& doc) {
  if (!doc.isObject()) return std::nullopt;
  const json::Value* schema = doc.find("schema");
  if (!schema || !schema->isString() || schema->string != "pdw-run-1")
    return std::nullopt;

  RunRecord record;
  record.label = stringField(doc, "label");
  record.bench = stringField(doc, "bench");
  record.timestamp = stringField(doc, "timestamp");
  record.git_sha = stringField(doc, "git_sha");
  record.build = stringField(doc, "build");
  record.config = stringField(doc, "config");
  if (const json::Value* quick = doc.find("quick"))
    record.quick = quick->kind == json::Value::Kind::Bool && quick->boolean;

  const json::Value* rows = doc.find("rows");
  if (rows && rows->isArray()) {
    for (const json::Value& r : rows->array) {
      const json::Value* name = r.find("name");
      if (!name || !name->isString()) continue;
      RunRow row;
      row.name = name->string;
      row.family = stringField(r, "family");
      if (const json::Value* values = r.find("values");
          values && values->isObject())
        for (const auto& [key, v] : values->object)
          if (v.isNumber()) row.values[key] = v.number;
      record.rows.push_back(std::move(row));
    }
  }

  if (const json::Value* metrics = doc.find("metrics");
      metrics && metrics->isObject())
    if (const json::Value* inner = metrics->find("metrics"))
      record.metrics = metricsFromJson(*inner);
  return record;
}

bool RunStore::append(const RunRecord& record) const {
  const std::string line = record.toJson() + "\n";
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<RunRecord> RunStore::loadAll() const {
  std::vector<RunRecord> records;
  std::ifstream in(path_, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = json::parse(line);
    if (!doc) continue;
    if (auto record = RunRecord::fromJson(*doc))
      records.push_back(std::move(*record));
  }
  return records;
}

std::optional<RunRecord> RunStore::findLabel(const std::string& label) const {
  std::optional<RunRecord> found;
  for (RunRecord& record : loadAll())
    if (record.label == label) found = std::move(record);  // latest wins
  return found;
}

std::optional<RunRecord> runRecordFromBenchDoc(const json::Value& doc) {
  if (!doc.isObject()) return std::nullopt;
  const json::Value* schema = doc.find("schema");
  if (!schema || !schema->isString() || schema->string != "pdw-bench-1")
    return std::nullopt;
  const json::Value* benchmarks = doc.find("benchmarks");
  if (!benchmarks || !benchmarks->isArray()) return std::nullopt;

  RunRecord record;
  record.label = stringField(doc, "label");
  record.bench = "pdw-bench-1";
  for (const json::Value& b : benchmarks->array) {
    const json::Value* name = b.find("name");
    if (!name || !name->isString()) continue;
    RunRow row;
    row.name = name->string;
    row.family = stringField(b, "family");
    for (const auto& [key, v] : b.object)
      if (v.isNumber()) row.values[key] = v.number;
    record.rows.push_back(std::move(row));
  }
  return record;
}

RunDiff diffRuns(const RunRecord& base, const RunRecord& current,
                 const DiffThresholds& thresholds) {
  RunDiff diff;
  std::map<std::string, const RunRow*> base_rows;
  for (const RunRow& row : base.rows) base_rows[row.name] = &row;

  for (const RunRow& row : current.rows) {
    const auto it = base_rows.find(row.name);
    if (it == base_rows.end()) continue;
    ++diff.common_rows;
    for (const std::string& metric : thresholds.metrics) {
      const auto cur_it = row.values.find(metric);
      const auto base_it = it->second->values.find(metric);
      if (cur_it == row.values.end() ||
          base_it == it->second->values.end())
        continue;
      RowDiff d;
      d.name = row.name;
      d.metric = metric;
      d.base = base_it->second;
      d.current = cur_it->second;
      d.pct = d.base > 0.0
                  ? (d.current - d.base) / d.base * 100.0
                  : (d.current > 0.0
                         ? std::numeric_limits<double>::infinity()
                         : 0.0);
      const bool noise_floor =
          metric == "wall_seconds" &&
          d.base < thresholds.min_wall_seconds &&
          d.current < thresholds.min_wall_seconds;
      d.regressed = !noise_floor && d.pct > thresholds.max_regression_pct;
      if (d.regressed) ++diff.regressions;
      diff.rows.push_back(std::move(d));
    }
  }
  return diff;
}

std::string currentGitSha() {
  if (const char* env = std::getenv("PDW_GIT_SHA");
      env != nullptr && env[0] != '\0')
    return env;
  std::string sha = "unknown";
  if (std::FILE* pipe =
          ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
      if (!line.empty()) sha = line;
    }
    ::pclose(pipe);
  }
  return sha;
}

std::string buildDescription() {
#if defined(PDW_BUILD_TYPE) && defined(PDW_COMPILER_ID)
  return std::string(PDW_BUILD_TYPE) + " " + PDW_COMPILER_ID;
#else
  return "unknown";
#endif
}

std::string timestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc = {};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace pdw::obs
