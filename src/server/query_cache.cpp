#include "pdcu/server/query_cache.hpp"

#include <utility>

namespace pdcu::server {

QueryCache::QueryCache(QueryCache&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mutex_);
  capacity_ = other.capacity_;
  lru_ = std::move(other.lru_);
  by_key_ = std::move(other.by_key_);
  hits_ = other.hits_;
  misses_ = other.misses_;
  evictions_ = other.evictions_;
}

QueryCache& QueryCache::operator=(QueryCache&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mutex_, other.mutex_);
    capacity_ = other.capacity_;
    lru_ = std::move(other.lru_);
    by_key_ = std::move(other.by_key_);
    hits_ = other.hits_;
    misses_ = other.misses_;
    evictions_ = other.evictions_;
  }
  return *this;
}

std::shared_ptr<const std::string> QueryCache::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->value;
}

std::shared_ptr<const std::string> QueryCache::put(const std::string& key,
                                                   std::string value) {
  auto stored = std::make_shared<const std::string>(std::move(value));
  if (capacity_ == 0) return stored;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    it->second->value = stored;
    lru_.splice(lru_.begin(), lru_, it->second);
    return stored;
  }
  lru_.push_front({key, stored});
  by_key_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  return stored;
}

std::uint64_t QueryCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t QueryCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t QueryCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace pdcu::server
