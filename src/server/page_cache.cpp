#include "pdcu/server/page_cache.hpp"

#include <cstdio>

#include "pdcu/support/hash.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::server {

namespace strs = pdcu::strings;

std::string strong_etag(std::string_view bytes) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "\"%016llx\"",
                static_cast<unsigned long long>(hash::fnv1a_64(bytes)));
  return buffer;
}

PageCache::PageCache(const site::Site& site, const PageCache* previous) {
  entries_.reserve(site.pages.size() + site.documents.size() + 1);
  for (const auto* pages : {&site.pages, &site.documents}) {
    for (const auto& page : *pages) {
      if (previous != nullptr) {
        const auto it = previous->entries_.find(page.path);
        if (it != previous->entries_.end() &&
            it->second->bytes == page.bytes) {
          share(page.path, it->second);
          ++reused_;
          continue;
        }
      }
      put(page.path, page.bytes,
          std::string(site::content_type_for(page.path)));
    }
  }
}

void PageCache::put(std::string site_path, std::string body,
                    std::string content_type) {
  put(std::move(site_path),
      std::make_shared<const std::string>(std::move(body)),
      std::move(content_type));
}

void PageCache::put(std::string site_path,
                    std::shared_ptr<const std::string> bytes,
                    std::string content_type) {
  auto entry = std::make_shared<CachedEntry>();
  entry->etag = strong_etag(*bytes);
  // Everything about these answers except the Connection header is known
  // now, so serialize it now; the per-request work for a cache hit is a
  // lookup plus one writev of [head, tail, body].
  const std::string shared_headers =
      "ETag: " + entry->etag + "\r\nCache-Control: no-cache\r\n";
  entry->head_200 = "HTTP/1.1 200 OK\r\n" + shared_headers +
                    "Content-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(bytes->size()) +
                    "\r\n";
  entry->head_304 = "HTTP/1.1 304 Not Modified\r\n" + shared_headers;
  entry->body = *bytes;
  entry->bytes = std::move(bytes);
  entry->content_type = std::move(content_type);
  share(std::move(site_path), std::move(entry));
}

void PageCache::share(std::string site_path,
                      std::shared_ptr<const CachedEntry> entry) {
  total_bytes_ += entry->body.size();
  auto [it, inserted] = entries_.try_emplace(std::move(site_path));
  if (!inserted) total_bytes_ -= it->second->body.size();
  it->second = std::move(entry);
}

std::shared_ptr<const CachedEntry> PageCache::entry(
    const std::string& site_path) const {
  const auto it = entries_.find(site_path);
  return it == entries_.end() ? nullptr : it->second;
}

std::string PageCache::normalize(std::string_view request_path) {
  while (!request_path.empty() && request_path.front() == '/') {
    request_path.remove_prefix(1);
  }
  // Dot-dot segments could only matter if entries aliased the filesystem;
  // they never match a cached key, which keeps the contract obvious.
  if (strs::contains(request_path, "..")) return std::string();
  std::string key(request_path);
  if (key.empty() || key.back() == '/') key += "index.html";
  return key;
}

const CachedEntry* PageCache::find(std::string_view request_path) const {
  const std::string key = normalize(request_path);
  if (key.empty()) return nullptr;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // "/activities/x" (no trailing slash) serves the directory index.
    it = entries_.find(key + "/index.html");
  }
  return it == entries_.end() ? nullptr : it->second.get();
}

}  // namespace pdcu::server
