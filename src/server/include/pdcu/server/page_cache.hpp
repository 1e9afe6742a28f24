// The serving cache: every page of a built pdcu::site::Site, keyed by
// normalized request path, with its content type and a strong ETag
// precomputed at construction so the per-request hot path is one hash
// lookup and zero hashing of page bytes. Entries are immutable and shared:
// a page's bytes are the Site's own buffer, and a cache built with the
// previous snapshot's cache takes over every entry whose bytes are
// unchanged, ETag and header blocks included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pdcu/site/site.hpp"

namespace pdcu::server {

/// A strong entity tag for `bytes`: a quoted 16-digit hex FNV-1a digest,
/// e.g. "\"af63dc4c8601ec8c\"".
std::string strong_etag(std::string_view bytes);

/// One cached response payload, with the wire-format header blocks for
/// both of its possible answers precomputed at construction. The blocks
/// deliberately stop short of the Connection header and the final CRLF:
/// the reactor's zero-copy path writev()s [head, connection-tail, body]
/// straight from here, so a cache hit serializes nothing per request.
struct CachedEntry {
  std::shared_ptr<const std::string> bytes;  ///< owns the body
  std::string_view body;                     ///< all of *bytes
  std::string content_type;
  std::string etag;
  /// "HTTP/1.1 200 OK" + ETag/Cache-Control/Content-Type/Content-Length
  /// header lines; no Connection header, no blank line.
  std::string head_200;
  /// "HTTP/1.1 304 Not Modified" + ETag/Cache-Control; same framing rules.
  std::string head_304;
};

/// Immutable-after-construction map from site path to payload. Lookups are
/// const and therefore safe from any number of server threads.
class PageCache {
 public:
  PageCache() = default;

  /// Caches every page and document of a built site, sharing their
  /// bytes; content types come from site::content_type_for. With
  /// `previous`, one whose bytes are the very buffer `previous` serves
  /// under the same path takes over that entry instead of hashing the
  /// bytes again.
  explicit PageCache(const site::Site& site,
                     const PageCache* previous = nullptr);

  /// Adds (or replaces) one entry under a site-relative path such as
  /// "api/catalog.json". The ETag is computed here.
  void put(std::string site_path, std::string body, std::string content_type);
  void put(std::string site_path, std::shared_ptr<const std::string> bytes,
           std::string content_type);

  /// Adds (or replaces) an existing entry under `site_path`, shared.
  void share(std::string site_path, std::shared_ptr<const CachedEntry> entry);

  /// The shared entry stored under an exact site-relative path; null when
  /// absent.
  std::shared_ptr<const CachedEntry> entry(const std::string& site_path) const;

  /// Resolves a request path ("/", "/activities/x/", "/activities/x") to a
  /// cached entry; nullptr when nothing matches.
  const CachedEntry* find(std::string_view request_path) const;

  /// Maps a request path to the site-relative key it would match:
  /// leading '/' stripped, "" and trailing-'/' forms get "index.html"
  /// appended, dot-dot segments collapse to an unmatchable key.
  static std::string normalize(std::string_view request_path);

  std::size_t size() const { return entries_.size(); }
  std::size_t total_bytes() const { return total_bytes_; }
  /// Site pages and documents taken over from `previous` at
  /// construction.
  std::size_t reused() const { return reused_; }

 private:
  std::unordered_map<std::string, std::shared_ptr<const CachedEntry>>
      entries_;
  std::size_t total_bytes_ = 0;
  std::size_t reused_ = 0;
};

}  // namespace pdcu::server
