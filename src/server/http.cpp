#include "pdcu/server/http.hpp"

#include <algorithm>
#include <cctype>

#include "pdcu/support/strings.hpp"

namespace pdcu::server {

namespace strs = pdcu::strings;

namespace {

constexpr std::size_t kMaxHeaderCount = 100;
constexpr std::size_t kMaxTargetBytes = 2048;

/// RFC 7230 token characters (header names, methods).
bool is_tchar(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  return kExtra.find(c) != std::string_view::npos;
}

bool is_upper_token(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return c >= 'A' && c <= 'Z'; });
}

bool is_valid_target(std::string_view s) {
  if (s.empty() || s.front() != '/' || s.size() > kMaxTargetBytes) {
    return false;
  }
  return std::none_of(s.begin(), s.end(), [](char c) {
    return c == ' ' || c == '\t' || static_cast<unsigned char>(c) < 0x20 ||
           c == 0x7f;
  });
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

const std::string* Request::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (equals_ignore_case(key, name)) return &value;
  }
  return nullptr;
}

std::string_view Request::path() const {
  const std::string_view t = target;
  return t.substr(0, t.find('?'));
}

std::string_view Request::query() const {
  const std::string_view t = target;
  const auto mark = t.find('?');
  return mark == std::string_view::npos ? std::string_view{}
                                        : t.substr(mark + 1);
}

std::string url_decode(std::string_view text, bool plus_as_space) {
  const auto hex_digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+' && plus_as_space) {
      out.push_back(' ');
      continue;
    }
    if (c == '%' && i + 2 < text.size()) {
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(c);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_query_params(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t start = 0;
  while (start <= query.size()) {
    std::size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(start, end - start);
    start = end + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      params.emplace_back(url_decode(pair), "");
    } else {
      params.emplace_back(url_decode(pair.substr(0, eq)),
                          url_decode(pair.substr(eq + 1)));
    }
  }
  return params;
}

namespace {

/// True when the comma-separated Connection header lists `token` as one of
/// its whole (trimmed, case-insensitive) members. Substring matching is
/// wrong here: "Connection: keep-alive, x-close-hint" must not read as
/// "close", and "proxy-keep-alive" must not read as "keep-alive".
bool connection_has_token(std::string_view header, std::string_view token) {
  for (const auto& piece : strs::split(header, ',')) {
    if (equals_ignore_case(strs::trim(piece), token)) return true;
  }
  return false;
}

}  // namespace

bool Request::has_body() const {
  const std::string* length = header("content-length");
  return (length != nullptr && *length != "0") ||
         header("transfer-encoding") != nullptr;
}

bool Request::keep_alive() const {
  const std::string* connection = header("connection");
  if (connection != nullptr && connection_has_token(*connection, "close")) {
    return false;
  }
  if (version == "HTTP/1.1") return true;
  return connection != nullptr &&
         connection_has_token(*connection, "keep-alive");
}

ParseResult parse_request(std::string_view data, std::size_t max_bytes) {
  ParseResult result;

  // Locate the end of the head: CRLFCRLF, tolerating bare LF.
  const std::size_t crlf = data.find("\r\n\r\n");
  const std::size_t lf = data.find("\n\n");
  std::size_t head_len = 0;
  std::size_t terminator = 0;
  if (crlf != std::string_view::npos &&
      (lf == std::string_view::npos || crlf < lf)) {
    head_len = crlf;
    terminator = 4;
  } else if (lf != std::string_view::npos) {
    head_len = lf;
    terminator = 2;
  } else {
    result.status = data.size() > max_bytes ? ParseStatus::kTooLarge
                                            : ParseStatus::kIncomplete;
    return result;
  }
  if (head_len + terminator > max_bytes) {
    result.status = ParseStatus::kTooLarge;
    return result;
  }

  const auto lines = strs::split_lines(data.substr(0, head_len));
  if (lines.empty()) {
    result.status = ParseStatus::kBad;
    return result;
  }

  // Start line: METHOD SP target SP HTTP-version, single spaces only.
  const auto parts = strs::split(lines.front(), ' ');
  if (parts.size() != 3 || !is_upper_token(parts[0]) ||
      !is_valid_target(parts[1]) ||
      (parts[2] != "HTTP/1.0" && parts[2] != "HTTP/1.1")) {
    result.status = ParseStatus::kBad;
    return result;
  }
  result.request.method = parts[0];
  result.request.target = parts[1];
  result.request.version = parts[2];

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    // No obs-fold continuations, no blank lines inside the head.
    if (line.empty() || line.front() == ' ' || line.front() == '\t') {
      result.status = ParseStatus::kBad;
      return result;
    }
    const auto colon = line.find(':');
    if (colon == 0 || colon == std::string::npos) {
      result.status = ParseStatus::kBad;
      return result;
    }
    const std::string_view name = std::string_view(line).substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), is_tchar)) {
      result.status = ParseStatus::kBad;
      return result;
    }
    if (result.request.headers.size() >= kMaxHeaderCount) {
      result.status = ParseStatus::kBad;
      return result;
    }
    result.request.headers.emplace_back(
        strs::to_lower(name),
        std::string(strs::trim(std::string_view(line).substr(colon + 1))));
  }

  result.status = ParseStatus::kOk;
  result.consumed = head_len + terminator;
  return result;
}

namespace {

/// Field-value bytes: visible ASCII, obs-text, SP and HTAB; no controls.
bool is_field_text(std::string_view s) {
  return std::none_of(s.begin(), s.end(), [](char c) {
    const auto byte = static_cast<unsigned char>(c);
    return (byte < 0x20 && c != '\t') || byte == 0x7f;
  });
}

constexpr std::string_view kHttp1Prefix = "HTTP/1.";

/// "HTTP/1.x" SP 3DIGIT [SP reason-phrase]; returns the status or 0.
int parse_status_line(std::string_view line, bool& http10) {
  if (line.size() < 12 || line.substr(0, 7) != kHttp1Prefix ||
      line[7] < '0' || line[7] > '9' || line[8] != ' ') {
    return 0;
  }
  if (line.size() > 12 && line[12] != ' ') return 0;
  int status = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (line[i] < '0' || line[i] > '9') return 0;
    status = status * 10 + (line[i] - '0');
  }
  if (status < 100 || status > 599 || !is_field_text(line.substr(12))) {
    return 0;
  }
  http10 = line[7] == '0';
  return status;
}

}  // namespace

std::optional<std::string_view> ResponseHead::header(
    std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (equals_ignore_case(key, name)) return value;
  }
  return std::nullopt;
}

bool ResponseHead::complete(std::size_t buffered) const {
  return parse == ParseStatus::kOk && content_length.has_value() &&
         buffered >= body_offset &&
         buffered - body_offset >= *content_length;
}

ResponseHead parse_response(std::string_view data) {
  ResponseHead head;
  const auto bad = [&head] {
    head = ResponseHead{};
    head.parse = ParseStatus::kBad;
    return head;
  };
  // A stream that cannot become a status line fails now, not at timeout.
  if (data.substr(0, kHttp1Prefix.size()) !=
      kHttp1Prefix.substr(0, std::min(kHttp1Prefix.size(), data.size()))) {
    return bad();
  }

  bool http10 = false;
  bool keep_alive = false;
  std::size_t pos = 0;
  while (true) {
    const std::size_t lf = data.find('\n', pos);
    if (lf == std::string_view::npos) {
      return data.size() > kMaxResponseHeadBytes ? bad() : ResponseHead{};
    }
    if (lf + 1 > kMaxResponseHeadBytes || lf == pos || data[lf - 1] != '\r') {
      return bad();  // oversized head, or a bare LF
    }
    const std::string_view line = data.substr(pos, lf - 1 - pos);
    pos = lf + 1;
    if (head.status == 0) {
      head.status = parse_status_line(line, http10);
      if (head.status == 0) return bad();
      continue;
    }
    if (line.empty()) break;  // end of head

    const std::size_t colon = line.find(':');
    if (colon == 0 || colon == std::string_view::npos ||
        head.headers.size() >= kMaxHeaderCount) {
      return bad();
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view raw_value = line.substr(colon + 1);
    if (!std::all_of(name.begin(), name.end(), is_tchar) ||
        !is_field_text(raw_value)) {
      return bad();
    }
    const std::string_view value = strs::trim(raw_value);
    head.headers.emplace_back(name, value);

    if (equals_ignore_case(name, "content-length")) {
      const auto length = strs::parse_u64(value);
      if (!length || (head.content_length && *head.content_length != *length)) {
        return bad();
      }
      head.content_length = length;
    } else if (equals_ignore_case(name, "transfer-encoding")) {
      return bad();
    } else if (equals_ignore_case(name, "connection")) {
      head.close = head.close || connection_has_token(value, "close");
      keep_alive = keep_alive || connection_has_token(value, "keep-alive");
    }
  }

  head.parse = ParseStatus::kOk;
  head.body_offset = pos;
  if (head.status < 200 || head.status == 204 || head.status == 304) {
    head.content_length = 0;
  }
  if ((http10 && !keep_alive) || !head.content_length) head.close = true;
  return head;
}

void Response::set(std::string name, std::string value) {
  for (auto& [key, existing] : headers) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(name), std::move(value));
}

const std::string* Response::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (equals_ignore_case(key, name)) return &value;
  }
  return nullptr;
}

std::string_view status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

Response error_response(int status) {
  Response response;
  response.status = status;
  response.set("Content-Type", "text/plain; charset=utf-8");
  response.set("Connection", "close");
  if (status == 503) {
    // The connection limit is a transient condition; tell clients when to
    // come back instead of letting them retry-storm the accept loop.
    response.set("Retry-After", "1");
  }
  response.body = std::to_string(status) + " ";
  response.body += status_reason(status);
  response.body += "\n";
  return response;
}

std::string serialize(const Response& response, bool head_only) {
  const bool body_allowed = response.status / 100 != 1 &&
                            response.status != 204 && response.status != 304;
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += status_reason(response.status);
  out += "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (body_allowed && response.header("content-length") == nullptr) {
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += "\r\n";
  if (body_allowed && !head_only) out += response.body;
  return out;
}

}  // namespace pdcu::server
