// LRU cache for wash-path routing results.
//
// Repeated sub-assays across batch requests pose the same localized routing
// problem over and over: same chip, same target-cell set, same blocked
// (foreign-device) cells, same routing knobs. The routed path depends on
// nothing else, so the result — including "unroutable" — can be memoized
// and the per-operation ILP skipped entirely on a hit.
//
// Keys capture every routing input: a fingerprint of the chip (grid extent,
// pitch, every port, every device — the flow/waste port set the ILP chooses
// from), the sorted target-cell set, a hash of the blocked cells (devices
// not in the target set, which both routers avoid on their first pass), and
// the routing options (ILP on/off, solver budgets: the only path-solver
// settings, so every setting that can change a path is in the key). The
// cache is content-addressed: an entry is reachable only through the exact
// problem it answers, so no entry can go stale and the cache is a plain
// bounded LRU. Lookups and inserts are thread-safe; the parallel routing
// stage and every pdwd lane share one cache.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include <mutex>

#include "arch/chip.h"
#include "arch/path.h"

namespace pdw::core {

struct WashPathOptions;  // wash_path_ilp.h

/// 64-bit fingerprint of everything routing-relevant about a chip: grid
/// extent, pitch, every port (cell + waste/flow role), every device (cell +
/// kind). Shared by the route-cache key and the service layer's request
/// fingerprints.
std::uint64_t chipFingerprint(const arch::ChipLayout& chip);

/// Full routing-problem identity. Kept verbatim (not just hashed) so a hash
/// collision can never alias two different problems.
struct RouteKey {
  std::uint64_t chip_fingerprint = 0;
  std::uint64_t blocked_hash = 0;
  std::uint64_t options_hash = 0;
  std::vector<arch::Cell> targets;  ///< sorted, deduplicated

  friend bool operator==(const RouteKey&, const RouteKey&) = default;
};

struct RouteKeyHash {
  std::size_t operator()(const RouteKey& key) const;
};

struct RouteCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t evictions = 0;
  double hitRate() const {
    const std::int64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(lookups);
  }
};

class RouteCache {
 public:
  /// `capacity` = maximum cached routing problems (LRU eviction beyond it).
  explicit RouteCache(std::size_t capacity);

  /// Outer nullopt: not cached. Inner value: the memoized routing result,
  /// where an empty inner optional is a memoized *failure* (unroutable).
  std::optional<std::optional<arch::FlowPath>> lookup(const RouteKey& key);

  /// Memoize `path` for `key`, evicting the least-recently-used entry when
  /// full. Re-inserting an existing key refreshes its recency.
  void insert(const RouteKey& key, std::optional<arch::FlowPath> path);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  RouteCacheStats stats() const;

  /// Build the key for routing `targets` on `chip` under `options`.
  /// `use_ilp` distinguishes ILP routing from the pure BFS heuristic.
  static RouteKey makeKey(const arch::ChipLayout& chip,
                          const std::vector<arch::Cell>& targets,
                          bool use_ilp, const WashPathOptions& options);

 private:
  struct Entry {
    RouteKey key;
    std::optional<arch::FlowPath> path;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<RouteKey, std::list<Entry>::iterator, RouteKeyHash> map_;
  RouteCacheStats stats_;
};

}  // namespace pdw::core
