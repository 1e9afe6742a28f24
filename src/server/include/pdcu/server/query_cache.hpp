// LRU cache of search results. The cached value is the result *fragment*
// of the /api/search body (everything after the echoed raw query), keyed by
// the normalized parsed query — terms, filters, limit — so two inputs that
// normalize identically ("Sorting cards!" / "sorting CARD") share one
// entry. A reindex can never serve a stale one, because each index gets a
// fresh cache (below).
//
// Invalidation rides the existing RCU snapshot swap: the cache is a member
// of the Router, and a reload builds a whole new Router. A successful
// reload therefore starts with an empty cache for the new corpus, a failed
// reload keeps the last-known-good router *and* its warm cache, and
// requests in flight during a swap keep reading the snapshot (and cache)
// they started with. No cross-snapshot coordination exists to get wrong.
//
// Thread safety: one mutex around an intrusive LRU list + hash map. A
// cache round-trip replaces BM25 scoring plus JSON assembly, so the
// critical section (a splice and a pointer copy) is far below the work it
// saves; the stats counters feed /metrics (pdcu_search_cache_*). Fragments
// are immutable and shared, so a hit copies its bytes only into the
// response body, outside the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pdcu::server {

class QueryCache {
 public:
  /// `capacity` = max cached queries; 0 disables caching (every get
  /// misses, puts are dropped).
  explicit QueryCache(std::size_t capacity) : capacity_(capacity) {}

  /// Movable so the owning Router stays movable (snapshot swaps move
  /// routers around before they are shared); locks the source, since a
  /// mutex member deletes the defaults.
  QueryCache(QueryCache&& other) noexcept;
  QueryCache& operator=(QueryCache&& other) noexcept;
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// The cached fragment for `key`, refreshing its recency; null on miss.
  /// Counts a hit or a miss.
  std::shared_ptr<const std::string> get(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// beyond capacity. Returns the fragment as stored (still returned, not
  /// stored, when capacity is 0).
  std::shared_ptr<const std::string> put(const std::string& key,
                                         std::string value);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> value;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> by_key_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pdcu::server
