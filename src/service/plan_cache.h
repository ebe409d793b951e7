// Plan cache for the pdwd service.
//
// Memoizes the full solved outcome of a request — wash plan metrics plus
// the canonical plan serialization — keyed by everything that determines
// it: the chip fingerprint, the base-schedule fingerprint, and the solver
// configuration fingerprint (which, via ilp::fingerprint, covers the
// budgets, the only solver settings). A warm hit skips the entire
// pipeline: necessity analysis, clustering, routing, model build, presolve
// and branch-and-bound.
//
// Budget-capped outcomes ("budget_hit") are cached too: the solver is
// deterministic under a node budget, so the capped plan is as reproducible
// as a proven-optimal one, and budget-heavy benchmarks would otherwise
// never warm up.
//
// Like core::RouteCache, the cache is content-addressed: the key holds every
// input of the solve, so no entry can go stale, and the cache is a plain
// bounded LRU.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "service/protocol.h"

namespace pdw::service {

/// Identity of a cacheable solve: fingerprints of the chip, the base
/// schedule, and the resolved solver configuration.
struct PlanKey {
  std::uint64_t chip_fingerprint = 0;
  std::uint64_t schedule_fingerprint = 0;
  std::uint64_t config_fingerprint = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const;
};

/// The memoized outcome: everything a solve response carries except the
/// per-request fields (wall/queue time, warm flag, id, trace).
struct CachedPlan {
  std::string status;  ///< "ok" | "budget_hit"
  int n_wash = 0;
  double l_wash_mm = 0.0;
  double t_assay = 0.0;
  double wash_time_s = 0.0;
  bool proven_optimal = false;
  std::string plan;  ///< canonicalPlan() serialization
};

struct PlanCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t evictions = 0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  std::optional<CachedPlan> lookup(const PlanKey& key);

  /// Memoize `plan` for `key`, evicting the least-recently-used entry when
  /// full. Re-inserting an existing key refreshes its recency.
  void insert(const PlanKey& key, CachedPlan plan);

  PlanCacheStats stats() const;

 private:
  struct Entry {
    PlanKey key;
    CachedPlan plan;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_;
  PlanCacheStats stats_;
};

}  // namespace pdw::service
