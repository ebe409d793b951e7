#include "service/plan_cache.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/hash.h"

namespace pdw::service {

namespace {

obs::Counter& hitCounter() {
  static obs::Counter& c =
      obs::Registry::instance().counter(obs::names::kPdwdPlanCacheHits);
  return c;
}

obs::Counter& missCounter() {
  static obs::Counter& c =
      obs::Registry::instance().counter(obs::names::kPdwdPlanCacheMisses);
  return c;
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& key) const {
  using util::hash::combine;
  return static_cast<std::size_t>(
      combine(combine(key.chip_fingerprint, key.schedule_fingerprint),
              key.config_fingerprint));
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<CachedPlan> PlanCache::lookup(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    missCounter().increment();
    return std::nullopt;
  }
  ++stats_.hits;
  hitCounter().increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

void PlanCache::insert(const PlanKey& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  map_.emplace(key, lru_.begin());
  ++stats_.inserts;
  if (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pdw::service
