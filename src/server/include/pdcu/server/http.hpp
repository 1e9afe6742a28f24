// Minimal HTTP/1.1 message layer: request parsing with hard size limits,
// response serialization, and status reasons for the embedded server, plus
// the one response-head parser every client in the repository frames its
// replies with (through ClientExchange, client.hpp). Both parsers are incremental — callers feed them a
// growing buffer and they report kIncomplete until a full head has
// arrived — and strict: anything malformed is kBad, which the server
// answers with 400 and a client counts as a read error, instead of
// guessing (and instead of crashing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdcu::server {

/// Upper bound on a request head (start-line + headers) unless overridden.
inline constexpr std::size_t kDefaultMaxRequestBytes = 16 * 1024;

enum class ParseStatus {
  kOk,          ///< a complete request head was parsed
  kIncomplete,  ///< need more bytes; call again with a longer buffer
  kBad,         ///< malformed; answer 400 and close
  kTooLarge,    ///< head exceeds the limit; answer 431 and close
};

/// One parsed request head. Header names are stored lower-cased; values are
/// trimmed of surrounding whitespace.
struct Request {
  std::string method;   ///< e.g. "GET" (uppercase token)
  std::string target;   ///< origin-form, e.g. "/activities/x/?plain=1"
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* header(std::string_view name) const;

  /// Target up to (excluding) the first '?'.
  std::string_view path() const;
  /// Target after the first '?', empty when there is none.
  std::string_view query() const;

  /// HTTP/1.1 defaults to persistent connections unless "Connection: close";
  /// HTTP/1.0 requires an explicit "Connection: keep-alive".
  bool keep_alive() const;

  /// True when the request announces a body (a non-zero Content-Length or
  /// any Transfer-Encoding). Bodies are never routed, so a connection that
  /// carried one is answered and closed: its body bytes must not be read
  /// as the next request head.
  bool has_body() const;
};

struct ParseResult {
  ParseStatus status = ParseStatus::kIncomplete;
  Request request;            ///< populated only when status == kOk
  std::size_t consumed = 0;   ///< bytes of input consumed when status == kOk
};

/// Decodes %xx escapes and, when `plus_as_space`, '+' into ' ' (the
/// query-string convention). Invalid or truncated escapes pass through
/// literally instead of failing — a lenient decoder can't be exploited
/// into rejecting valid data, and the router treats the result as text.
std::string url_decode(std::string_view text, bool plus_as_space = true);

/// Splits a query string ("q=a%20b&limit=5&flag") into decoded key/value
/// pairs, preserving order and repeated keys; a key without '=' gets an
/// empty value.
std::vector<std::pair<std::string, std::string>> parse_query_params(
    std::string_view query);

/// Parses one request head from the front of `data`. Tolerates bare-LF line
/// endings; rejects obs-fold continuations, non-token method/header names,
/// targets that do not start with '/', and unknown HTTP versions.
ParseResult parse_request(std::string_view data,
                          std::size_t max_bytes = kDefaultMaxRequestBytes);

/// Upper bound on a response head a client will buffer before giving up.
inline constexpr std::size_t kMaxResponseHeadBytes = 16 * 1024;

/// One parsed response head. The header views point into the buffer given
/// to parse_response and are valid only while it is unchanged.
struct ResponseHead {
  /// kOk, kIncomplete or kBad; an oversized head is kBad, never kTooLarge.
  ParseStatus parse = ParseStatus::kIncomplete;
  int status = 0;               ///< 100..599 when parse == kOk
  std::size_t body_offset = 0;  ///< head bytes, blank line included
  /// Body length: the Content-Length, or 0 for a status that never carries
  /// a body (1xx, 204, 304). nullopt means the body runs to EOF.
  std::optional<std::uint64_t> content_length;
  /// The server closes the connection after this response: it said
  /// "Connection: close", spoke HTTP/1.0 without keep-alive, or sent an
  /// unframed body.
  bool close = false;
  std::vector<std::pair<std::string_view, std::string_view>> headers;

  /// Case-insensitive header lookup; nullopt when absent.
  std::optional<std::string_view> header(std::string_view name) const;

  /// True when `buffered` bytes (head included) hold the whole framed
  /// body. Always false for an unframed body, which ends only at EOF.
  bool complete(std::size_t buffered) const;
};

/// Parses one response head from the front of `data`. Strict where the
/// clients must not guess: the status line is "HTTP/1.x" SP three digits
/// (100..599) [SP reason]; every line ends in CRLF (a bare LF is kBad);
/// header names are tokens with no obs-fold; Content-Length is a plain
/// decimal (strings::parse_u64), and duplicates must agree. A
/// Transfer-Encoding is kBad because no client here decodes chunked
/// bodies, and misframing one would desync a keep-alive stream.
/// A head longer than kMaxResponseHeadBytes is kBad.
ResponseHead parse_response(std::string_view data);

struct Response {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Appends or replaces a header (exact-name match on replace).
  void set(std::string name, std::string value);
  const std::string* header(std::string_view name) const;
};

/// Canonical reason phrase ("OK", "Not Modified", ...); "Unknown" otherwise.
std::string_view status_reason(int status);

/// The canned close-the-connection error answer the connection layer sends
/// for 400/408/431/503: plain-text body "<status> <reason>\n" and
/// "Connection: close". A 503 (connection limit) additionally carries
/// "Retry-After: 1" so well-behaved clients back off instead of
/// hammering an already-saturated accept loop.
Response error_response(int status);

/// Serializes status line, headers, and body. Content-Length is added
/// automatically unless already set; 1xx/204/304 responses never carry a
/// body. `head_only` keeps the head (for HEAD requests) but still reports
/// the full Content-Length.
std::string serialize(const Response& response, bool head_only = false);

}  // namespace pdcu::server
