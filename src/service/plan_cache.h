// Versioned plan cache for the pdwd service.
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
// Versioning: the cache carries a monotonically increasing version.
// invalidate() (or a request with cache_version above the current value)
// empties the cache and bumps the version; inserts carry the version they
// were computed under and are dropped as stale if it no longer matches —
// the same epoch discipline as core::RouteCache.
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
  std::int64_t stale_drops = 0;
  std::int64_t invalidations = 0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  std::optional<CachedPlan> lookup(const PlanKey& key);

  /// Memoize `plan` if the cache is still at `version` (as captured before
  /// the solve). Returns false and drops the entry when a concurrent
  /// invalidation made it stale.
  bool insert(const PlanKey& key, CachedPlan plan, std::uint64_t version);

  /// Current cache version (generation). Starts at 0.
  std::uint64_t version() const;

  /// Drop everything and advance the version. Returns the new version.
  std::uint64_t invalidate();

  /// Invalidate only if `target` is above the current version; the version
  /// then becomes exactly `target` (so repeated client bumps converge).
  /// Returns the (possibly unchanged) current version.
  std::uint64_t bumpTo(std::uint64_t target);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  struct Entry {
    PlanKey key;
    CachedPlan plan;
  };

  void insertLocked(const PlanKey& key, CachedPlan plan);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t version_ = 0;  ///< guarded by mutex_
  std::list<Entry> lru_;       ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_;
  PlanCacheStats stats_;
};

}  // namespace pdw::service
