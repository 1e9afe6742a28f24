#include "pdcu/server/router.hpp"

#include <cstdio>
#include <cstdlib>

#include "pdcu/obs/exposition.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::server {

namespace strs = pdcu::strings;

namespace {

constexpr std::string_view kJsonType = "application/json; charset=utf-8";
constexpr std::string_view kTextType = "text/plain; charset=utf-8";

constexpr std::size_t kDefaultSearchLimit = 10;
constexpr std::size_t kMaxSearchLimit = 100;

/// If-None-Match is a comma-separated list of entity tags, or "*".
bool etag_matches(std::string_view if_none_match, std::string_view etag) {
  return strs::trim(if_none_match) == "*" ||
         strs::contains(if_none_match, etag);
}

Response plain_response(int status, std::string body) {
  Response response;
  response.status = status;
  response.set("Content-Type", std::string(kTextType));
  response.body = std::move(body);
  return response;
}

Response json_response(int status, std::string body) {
  Response response;
  response.status = status;
  response.set("Content-Type", std::string(kJsonType));
  response.body = std::move(body);
  return response;
}

std::string format_score(double score) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4f", score);
  return buffer;
}

/// The result fragment of a search response — everything after the echoed
/// raw query. This is what the query cache stores: it is a pure function
/// of (index, normalized query, limit), whereas the full body also echoes
/// the raw input, which varies across inputs that normalize identically.
std::string search_results_fragment(const std::vector<search::Hit>& hits) {
  std::string json = "\"count\":" + std::to_string(hits.size()) + ",\"hits\":[";
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const auto& hit = hits[i];
    if (i > 0) json += ',';
    json += "{\"slug\":\"";
    strs::json_escape_append(hit.slug, json);
    json += "\",\"title\":\"";
    strs::json_escape_append(hit.title, json);
    json += "\",\"url\":\"/activities/";
    strs::json_escape_append(hit.slug, json);
    json += "/\",\"score\":" + format_score(hit.score) + ",";
    // The snippet highlights matches with <mark>; everything else is
    // HTML-escaped, so clients can inject it into a results page directly.
    json += "\"snippet\":\"";
    strs::json_escape_append(
        hit.snippet.render("<mark>", "</mark>", strs::html_escape), json);
    json += "\"}";
  }
  json += "]}\n";
  return json;
}

/// Cache key: limit, normalized terms, filters. The QueryCache belongs to
/// one Router and so to one index. The 0x1f separators cannot appear in
/// tokenized terms, and the section separators keep terms and filters from
/// aliasing each other.
std::string search_cache_key(const search::Query& query, std::size_t limit) {
  std::string key = std::to_string(limit);
  for (const auto& term : query.terms) {
    key += '\x1f';
    key += term;
  }
  key += '|';
  for (const auto& filter : query.filters) {
    key += '\x1f';
    key += filter.taxonomy;
    key += ':';
    key += filter.value;
  }
  return key;
}

std::string query_cache_metrics_text(const QueryCache& cache) {
  obs::Exposition out;
  out.counter("pdcu_search_cache_hits_total", "Search query cache hits.",
              cache.hits());
  out.counter("pdcu_search_cache_misses_total", "Search query cache misses.",
              cache.misses());
  out.counter("pdcu_search_cache_evictions_total",
              "Search query cache LRU evictions.", cache.evictions());
  out.gauge("pdcu_search_cache_entries", "Search queries currently cached.",
            cache.size());
  return out.take();
}

}  // namespace

Router::Router(const site::Site& site, const core::Repository& repo,
               std::optional<search::SearchIndex> index,
               const Router* previous)
    : Router(site, repo,
             std::make_shared<const search::SearchIndex>(
                 index.has_value() ? std::move(*index)
                                   : search::SearchIndex::build(repo)),
             previous) {}

Router::Router(const site::Site& site, const core::Repository& repo,
               std::shared_ptr<const search::SearchIndex> index,
               const Router* previous)
    : Router(PageCache(site, previous != nullptr ? &previous->cache_ : nullptr),
             repo, std::move(index), previous) {}

Router::Router(PageCache pages, const core::Repository& repo,
               std::shared_ptr<const search::SearchIndex> index,
               const Router* previous)
    : cache_(std::move(pages)),
      entries_reused_(cache_.reused()),
      index_(std::move(index)),
      taxonomy_(repo.shared_index()) {
  // The process-lifetime wiring outlives every snapshot, so a replacement
  // serves the same endpoints as the router it replaces.
  if (previous != nullptr) {
    search_pool_ = previous->search_pool_;
    metrics_ = previous->metrics_;
    health_ = previous->health_;
    reload_metrics_ = previous->reload_metrics_;
    spans_ = previous->spans_;
    net_metrics_ = previous->net_metrics_;
  }
  // The catalog document is the site's index.json page, shared.
  const std::string catalog_path = "api/catalog.json";
  auto catalog = cache_.entry("index.json");
  if (catalog == nullptr) return;  // not a site build_site made
  if (previous != nullptr && previous->cache_.entry(catalog_path) == catalog) {
    ++entries_reused_;
  }
  cache_.share(catalog_path, std::move(catalog));
}

Response Router::handle(const Request& request) const {
  const std::string_view path = request.path();
  const bool known_route = path == "/healthz" || path == "/metrics" ||
                           path == "/api/search" ||
                           cache_.find(path) != nullptr;
  if (request.method != "GET" && request.method != "HEAD") {
    // 405 promises the path exists for some method; an unknown path is a
    // 404 no matter how it is requested.
    if (!known_route) {
      return plain_response(404, "404 not found\n");
    }
    Response response = plain_response(405, "405 method not allowed\n");
    response.set("Allow", "GET, HEAD");
    return response;
  }

  if (path == "/healthz") {
    if (health_ == nullptr) {
      return plain_response(200, "ok\n");
    }
    return json_response(200, health_->render_json());
  }
  if (path == "/metrics") {
    if (metrics_ == nullptr) {
      return plain_response(404, "404 metrics not enabled\n");
    }
    std::string text = metrics_->render_text();
    if (build_stats_.has_value()) text += build_stats_->render_text();
    if (reload_metrics_ != nullptr) text += reload_metrics_->render_text();
    if (spans_ != nullptr) text += spans_->render_text();
    if (net_metrics_ != nullptr) text += net_metrics_->render_text();
    text += query_cache_metrics_text(query_cache_);
    Response response;
    response.set("Content-Type", std::string(obs::kExpositionContentType));
    response.body = std::move(text);
    return response;
  }
  if (path == "/api/search") {
    return handle_search(request);
  }

  const CachedEntry* entry = cache_.find(path);
  if (entry == nullptr) {
    return plain_response(404, "404 not found\n");
  }

  Response response;
  response.set("ETag", entry->etag);
  response.set("Cache-Control", "no-cache");
  const std::string* if_none_match = request.header("if-none-match");
  if (if_none_match != nullptr && etag_matches(*if_none_match, entry->etag)) {
    response.status = 304;
    return response;
  }
  response.set("Content-Type", entry->content_type);
  response.body = entry->body;
  return response;
}

std::optional<Router::FastHit> Router::try_fast(const Request& request) const {
  const bool head_only = request.method == "HEAD";
  if (request.method != "GET" && !head_only) return std::nullopt;
  const CachedEntry* entry = cache_.find(request.path());
  if (entry == nullptr) return std::nullopt;

  FastHit hit;
  const std::string* if_none_match = request.header("if-none-match");
  if (if_none_match != nullptr && etag_matches(*if_none_match, entry->etag)) {
    hit.head = entry->head_304;
    hit.status = 304;
    return hit;
  }
  hit.head = entry->head_200;
  if (!head_only) hit.body = entry->body;
  hit.status = 200;
  return hit;
}

Response Router::handle_search(const Request& request) const {
  std::string q;
  bool has_q = false;
  std::size_t limit = kDefaultSearchLimit;
  for (const auto& [key, value] : parse_query_params(request.query())) {
    if (key == "q" && !has_q) {
      q = value;
      has_q = true;
    } else if (key == "limit") {
      // Strict parse: "10abc", "-1", "1e3", and "" are client errors, not
      // numbers; so is an explicit limit=0 (the old code silently served
      // the default for all of these). Valid but huge limits clamp.
      const auto parsed = strs::parse_u64(value);
      if (!parsed.has_value() || *parsed == 0) {
        return json_response(
            400,
            "{\"error\":\"invalid limit parameter: expected a positive "
            "integer\"}\n");
      }
      limit = std::min<std::size_t>(*parsed, kMaxSearchLimit);
    }
  }
  if (!has_q || strs::trim(q).empty()) {
    return json_response(400,
                         "{\"error\":\"missing query parameter q\"}\n");
  }

  const search::Query query = search::parse_query(q);

  // Serve the result fragment from the per-snapshot cache when the
  // normalized query has been answered before against this exact index;
  // otherwise run the (possibly sharded) ranked search and remember it.
  const std::string key = search_cache_key(query, limit);
  std::shared_ptr<const std::string> fragment = query_cache_.get(key);
  if (fragment == nullptr) {
    search::SearchOptions options;
    options.limit = limit;
    options.pool = search_pool_;
    options.filter_cache = &filter_cache_;
    const auto hits = index_->search(query, taxonomy_.get(), options);
    fragment = query_cache_.put(key, search_results_fragment(hits));
  }

  std::string body = "{\"query\":\"";
  strs::json_escape_append(query.raw, body);
  body += "\",";
  body += *fragment;
  Response response = json_response(200, std::move(body));
  // Same conditional-GET contract as cached pages: the body is a pure
  // function of (index, query), so the ETag is stable until a reindex.
  const std::string etag = strong_etag(response.body);
  response.set("ETag", etag);
  response.set("Cache-Control", "no-cache");
  const std::string* if_none_match = request.header("if-none-match");
  if (if_none_match != nullptr && etag_matches(*if_none_match, etag)) {
    Response not_modified;
    not_modified.status = 304;
    not_modified.set("ETag", etag);
    not_modified.set("Cache-Control", "no-cache");
    return not_modified;
  }
  return response;
}

}  // namespace pdcu::server
