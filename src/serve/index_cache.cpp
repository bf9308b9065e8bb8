#include "src/serve/index_cache.h"

#include <stdexcept>
#include <utility>

namespace pim::serve {

IndexCache::IndexCache(IndexCacheOptions options)
    : options_(std::move(options)) {
  if (options_.max_resident == 0) options_.max_resident = 1;
  if (options_.metrics != nullptr) {
    hits_metric_ = options_.metrics->counter("service.index_cache.hits");
    misses_metric_ = options_.metrics->counter("service.index_cache.misses");
    evictions_metric_ =
        options_.metrics->counter("service.index_cache.evictions");
    resident_bytes_metric_ =
        options_.metrics->gauge("service.index_cache.resident_bytes");
  }
}

void IndexCache::add_reference(std::string id, std::string path) {
  if (id.empty()) {
    throw std::invalid_argument("IndexCache: empty reference id");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!paths_.emplace(std::move(id), std::move(path)).second) {
    throw std::invalid_argument("IndexCache: duplicate reference id");
  }
}

bool IndexCache::has_reference(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_.count(id) != 0;
}

std::vector<std::string> IndexCache::reference_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(paths_.size());
  for (const auto& [id, path] : paths_) ids.push_back(id);
  return ids;
}

std::shared_ptr<const index::MappedIndex> IndexCache::acquire(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto path_it = paths_.find(id);
  if (path_it == paths_.end()) {
    throw std::out_of_range("IndexCache: unknown reference id '" + id + "'");
  }
  if (const auto it = resident_.find(id); it != resident_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    ++stats_.hits;
    hits_metric_.add(1);
    return it->second->index;
  }

  auto mapped = std::make_shared<index::MappedIndex>(
      index::MappedIndex::open(path_it->second, {}, options_.metrics));
  ++stats_.misses;
  misses_metric_.add(1);
  lru_.push_front(Entry{id, std::move(mapped)});
  resident_[id] = lru_.begin();
  while (lru_.size() > options_.max_resident) {
    // Drop our pin only: a request still holding the shared_ptr keeps the
    // evicted index alive until it finishes.
    resident_.erase(lru_.back().id);
    lru_.pop_back();
    ++stats_.evictions;
    evictions_metric_.add(1);
  }
  update_resident_bytes_locked();
  return lru_.front().index;
}

bool IndexCache::resident(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_.count(id) != 0;
}

std::vector<std::string> IndexCache::resident_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(lru_.size());
  for (const auto& entry : lru_) ids.push_back(entry.id);
  return ids;
}

IndexCache::Stats IndexCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.resident = lru_.size();
  s.resident_bytes = 0;
  for (const auto& entry : lru_) s.resident_bytes += entry.index->resident_bytes();
  return s;
}

void IndexCache::update_resident_bytes_locked() {
  std::uint64_t bytes = 0;
  for (const auto& entry : lru_) bytes += entry.index->resident_bytes();
  resident_bytes_metric_.set(static_cast<double>(bytes));
}

}  // namespace pim::serve
