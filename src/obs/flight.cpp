#include "obs/flight.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "obs/json.h"

namespace pdw::obs {

namespace {

/// JSON has no infinity/NaN, but bound payloads start at -inf (the root
/// node's inherited bound). Clamp to the double range so every event line
/// stays parseable.
double jsonFinite(double x) {
  if (std::isnan(x)) return 0.0;
  if (std::isinf(x)) return x > 0 ? 1.7976931348623157e308
                                  : -1.7976931348623157e308;
  return x;
}

/// One lock for all JSONL appends: solve blocks from concurrent lanes must
/// land contiguously (header + its events), and fopen("a") alone only
/// guarantees atomicity per fwrite.
std::mutex& dumpMutex() {
  static std::mutex m;
  return m;
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* toString(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::SolveBegin: return "solve_begin";
    case FlightEventKind::NodeOpen: return "node_open";
    case FlightEventKind::NodeSolved: return "node_solved";
    case FlightEventKind::NodePruned: return "node_pruned";
    case FlightEventKind::NodeBranched: return "node_branched";
    case FlightEventKind::Incumbent: return "incumbent";
    case FlightEventKind::BoundDelta: return "bound_delta";
    case FlightEventKind::WarmMiss: return "warm_miss";
    case FlightEventKind::Refactorization: return "refactorization";
    case FlightEventKind::DualStall: return "dual_stall";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(const FlightConfig& config, std::string lane)
    : config_(config), lane_(std::move(lane)), start_ns_(nowNs()) {
  ring_.resize(config_.ring_capacity > 0 ? config_.ring_capacity : 1);
}

void FlightRecorder::record(FlightEventKind kind, std::int64_t node,
                            double value, double extra) {
  FlightEvent& slot =
      ring_[static_cast<std::size_t>(recorded_) % ring_.size()];
  slot.t_us = (nowNs() - start_ns_) / 1000;
  slot.node = node;
  slot.value = value;
  slot.extra = extra;
  slot.seq = static_cast<std::uint32_t>(recorded_);
  slot.kind = kind;
  ++counts_[static_cast<int>(kind)];
  ++recorded_;
}

std::size_t FlightRecorder::retained() const {
  return recorded_ < static_cast<std::int64_t>(ring_.size())
             ? static_cast<std::size_t>(recorded_)
             : ring_.size();
}

const FlightEvent& FlightRecorder::event(std::size_t i) const {
  // Oldest retained event sits at the write cursor once the ring wrapped.
  const std::size_t base =
      recorded_ < static_cast<std::int64_t>(ring_.size())
          ? 0
          : static_cast<std::size_t>(recorded_) % ring_.size();
  return ring_[(base + i) % ring_.size()];
}

bool FlightRecorder::shouldDump(bool hit_limit, double wall_seconds) const {
  if (config_.path.empty()) return false;
  if (config_.dump_all) return true;
  if (config_.dump_on_limit && hit_limit) return true;
  return wall_seconds > config_.slow_solve_seconds;
}

bool FlightRecorder::dump(const char* status, double wall_seconds) const {
  if (config_.path.empty()) return false;
  std::string out;
  out.reserve(128 + retained() * 96);
  char buf[160];

  out += "{\"schema\":\"pdw-flight-1\",\"type\":\"solve\",\"lane\":";
  out += json::quote(lane_);
  out += ",\"status\":";
  out += json::quote(status);
  std::snprintf(buf, sizeof(buf), ",\"wall_seconds\":%.6g", wall_seconds);
  out += buf;
  out += ",\"counts\":{";
  bool first = true;
  for (int k = 0; k < kFlightEventKinds; ++k) {
    if (counts_[k] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += json::quote(toString(static_cast<FlightEventKind>(k)));
    std::snprintf(buf, sizeof(buf), ":%lld",
                  static_cast<long long>(counts_[k]));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "},\"dropped\":%lld,\"events\":%zu}\n",
                static_cast<long long>(dropped()), retained());
  out += buf;

  for (std::size_t i = 0; i < retained(); ++i) {
    const FlightEvent& e = event(i);
    out += "{\"type\":\"event\",\"kind\":";
    out += json::quote(toString(e.kind));
    std::snprintf(buf, sizeof(buf),
                  ",\"seq\":%u,\"t_us\":%llu,\"node\":%lld,\"value\":%.9g,"
                  "\"extra\":%.9g}\n",
                  e.seq, static_cast<unsigned long long>(e.t_us),
                  static_cast<long long>(e.node), jsonFinite(e.value),
                  jsonFinite(e.extra));
    out += buf;
  }

  std::lock_guard<std::mutex> lock(dumpMutex());
  std::FILE* f = std::fopen(config_.path.c_str(), "a");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pdw::obs
