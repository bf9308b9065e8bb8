// IndexCache (S42): bounded LRU residency of mapped index artifacts.
//
// A serving deployment rarely fits every reference it can align against in
// memory at once (a clinic's panel of assemblies, per-species backfills).
// The cache registers reference_id -> artifact path up front, then loads on
// first use via MappedIndex::open and keeps at most `max_resident` indexes
// alive, evicting least-recently-used. Because residency is shared_ptr
// based, eviction never tears an index out from under an in-flight request:
// the evicted index dies when its last user releases it, the cache merely
// drops its own pin.
//
// Observability: when a MetricsRegistry is wired, the cache publishes
//   service.index_cache.hits / misses / evictions     (counters)
//   service.index_cache.resident_bytes                (gauge)
// so capacity tuning is data-driven (a high miss rate at N resident means
// the panel working set is larger than N).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/index/mapped_index.h"
#include "src/obs/metrics.h"

namespace pim::serve {

struct IndexCacheOptions {
  /// Maximum indexes resident at once (LRU beyond that). Clamped to >= 1.
  std::size_t max_resident = 2;
  /// Publishes the service.index_cache.* series when set.
  obs::MetricsRegistry* metrics = nullptr;
};

class IndexCache {
 public:
  explicit IndexCache(IndexCacheOptions options = {});

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Register an artifact path under `id`. Registration is metadata only —
  /// nothing is opened until the first acquire. Throws std::invalid_argument
  /// on an empty or duplicate id.
  void add_reference(std::string id, std::string path);

  bool has_reference(const std::string& id) const;
  std::vector<std::string> reference_ids() const;

  /// Get-or-load with LRU update. Thread-safe; a miss opens the artifact
  /// under the cache lock (concurrent acquires of other ids wait — loads
  /// are rare and correctness is simpler than per-entry latches). Throws
  /// std::out_of_range for an unregistered id and propagates
  /// std::runtime_error from a corrupt artifact.
  std::shared_ptr<const index::MappedIndex> acquire(const std::string& id);

  /// Is `id` currently resident (without touching LRU order)?
  bool resident(const std::string& id) const;
  /// Currently resident ids, most recently used first.
  std::vector<std::string> resident_ids() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t resident = 0;
    std::uint64_t resident_bytes = 0;
  };
  Stats stats() const;

  const IndexCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string id;
    std::shared_ptr<const index::MappedIndex> index;
  };

  void update_resident_bytes_locked();

  IndexCacheOptions options_;
  obs::Counter hits_metric_;
  obs::Counter misses_metric_;
  obs::Counter evictions_metric_;
  obs::Gauge resident_bytes_metric_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> paths_;
  /// LRU order, front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> resident_;
  Stats stats_;
};

}  // namespace pim::serve
