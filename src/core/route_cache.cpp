#include "core/route_cache.h"

#include <algorithm>
#include <set>

#include "core/wash_path_ilp.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/hash.h"

namespace pdw::core {

namespace {

// Per-instance stats_ stay authoritative for this cache object; the same
// events are mirrored into the process-wide registry so trace/metrics
// exports see cache behavior without a handle on the instance.
obs::Counter& hitCounter() {
  static obs::Counter& c =
      obs::Registry::instance().counter(obs::names::kRouteCacheHits);
  return c;
}

obs::Counter& missCounter() {
  static obs::Counter& c =
      obs::Registry::instance().counter(obs::names::kRouteCacheMisses);
  return c;
}

obs::Counter& insertCounter() {
  static obs::Counter& c =
      obs::Registry::instance().counter(obs::names::kRouteCacheInserts);
  return c;
}

obs::Counter& evictionCounter() {
  static obs::Counter& c =
      obs::Registry::instance().counter(obs::names::kRouteCacheEvictions);
  return c;
}

using util::hash::combine;
using util::hash::combineDouble;

std::uint64_t combineCell(std::uint64_t seed, arch::Cell c) {
  return combine(seed, (static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(c.x))
                        << 32) |
                           static_cast<std::uint32_t>(c.y));
}

}  // namespace

std::uint64_t chipFingerprint(const arch::ChipLayout& chip) {
  std::uint64_t h = combine(
      combine(static_cast<std::uint64_t>(chip.width()),
              static_cast<std::uint64_t>(chip.height())),
      0);
  h = combineDouble(h, chip.pitchMm());
  for (const arch::Port& p : chip.ports()) {
    h = combineCell(h, p.cell);
    h = combine(h, p.is_waste ? 1 : 2);
  }
  for (const arch::Device& d : chip.devices()) {
    h = combineCell(h, d.cell);
    h = combine(h, static_cast<std::uint64_t>(d.kind));
  }
  return h;
}

std::size_t RouteKeyHash::operator()(const RouteKey& key) const {
  std::uint64_t h = combine(key.chip_fingerprint, key.blocked_hash);
  h = combine(h, key.options_hash);
  for (const arch::Cell& c : key.targets) h = combineCell(h, c);
  return static_cast<std::size_t>(h);
}

RouteCache::RouteCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<std::optional<arch::FlowPath>> RouteCache::lookup(
    const RouteKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    missCounter().increment();
    return std::nullopt;
  }
  ++stats_.hits;
  hitCounter().increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->path;
}

void RouteCache::insert(const RouteKey& key,
                        std::optional<arch::FlowPath> path) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->path = std::move(path);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(path)});
  map_.emplace(key, lru_.begin());
  ++stats_.inserts;
  insertCounter().increment();
  if (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    evictionCounter().increment();
  }
}

std::size_t RouteCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

RouteCacheStats RouteCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

RouteKey RouteCache::makeKey(const arch::ChipLayout& chip,
                             const std::vector<arch::Cell>& targets,
                             bool use_ilp, const WashPathOptions& options) {
  RouteKey key;
  key.chip_fingerprint = chipFingerprint(chip);

  key.targets = targets;
  std::sort(key.targets.begin(), key.targets.end());
  key.targets.erase(std::unique(key.targets.begin(), key.targets.end()),
                    key.targets.end());

  // Blocked cells: devices that are not wash targets (both the ILP region
  // builder and the BFS heuristic treat exactly these as obstacles on the
  // restricted pass).
  const std::set<arch::Cell> target_set(key.targets.begin(),
                                        key.targets.end());
  std::uint64_t blocked_h = 0x5bd1e995;
  for (const arch::Device& d : chip.devices())
    if (!target_set.count(d.cell)) blocked_h = combineCell(blocked_h, d.cell);
  // Caller-blocked cells (ScheduleDelta blockages) are routing inputs too:
  // fold them in sorted+deduplicated so a blocked problem never aliases the
  // unblocked entry (and insertion order cannot split identical problems).
  std::vector<arch::Cell> avoid = options.avoid_cells;
  std::sort(avoid.begin(), avoid.end());
  avoid.erase(std::unique(avoid.begin(), avoid.end()), avoid.end());
  for (const arch::Cell& c : avoid) {
    blocked_h = combine(blocked_h, 0x9e37u);
    blocked_h = combineCell(blocked_h, c);
  }
  key.blocked_hash = blocked_h;

  std::uint64_t opt_h = use_ilp ? 0x1234 : 0x4321;
  opt_h = combineDouble(opt_h, options.solver.time_limit_seconds);
  opt_h = combine(opt_h, static_cast<std::uint64_t>(options.solver.node_limit));
  opt_h = combine(opt_h, static_cast<std::uint64_t>(
                             options.solver.simplex_iteration_limit));
  key.options_hash = opt_h;

  return key;
}

}  // namespace pdw::core
