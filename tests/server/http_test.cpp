// Unit tests for the HTTP/1.1 message layer: request parsing (valid,
// truncated, oversized, malformed), header semantics, keep-alive defaults,
// response serialization, and the client-side response-head parser
// (strictness table, framing and close semantics, split-anywhere
// incrementality).
#include "pdcu/server/http.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "pdcu/support/strings.hpp"

namespace server = pdcu::server;
namespace strs = pdcu::strings;

TEST(HttpParse, ParsesASimpleGet) {
  const auto result = server::parse_request(
      "GET /activities/findsmallestcard/ HTTP/1.1\r\n"
      "Host: localhost:8080\r\n"
      "Accept: text/html\r\n"
      "\r\n");
  ASSERT_EQ(result.status, server::ParseStatus::kOk);
  EXPECT_EQ(result.request.method, "GET");
  EXPECT_EQ(result.request.target, "/activities/findsmallestcard/");
  EXPECT_EQ(result.request.version, "HTTP/1.1");
  ASSERT_EQ(result.request.headers.size(), 2u);
  EXPECT_EQ(result.request.headers[0].first, "host");  // lower-cased
  EXPECT_EQ(result.request.headers[0].second, "localhost:8080");
}

TEST(HttpParse, ConsumedCoversExactlyOneRequest) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  const auto result = server::parse_request(first + second);
  ASSERT_EQ(result.status, server::ParseStatus::kOk);
  EXPECT_EQ(result.consumed, first.size());
  const auto next =
      server::parse_request(std::string_view(first + second)
                                .substr(result.consumed));
  ASSERT_EQ(next.status, server::ParseStatus::kOk);
  EXPECT_EQ(next.request.target, "/b");
}

TEST(HttpParse, ToleratesBareLineFeeds) {
  const auto result =
      server::parse_request("GET / HTTP/1.1\nHost: x\n\n");
  ASSERT_EQ(result.status, server::ParseStatus::kOk);
  EXPECT_EQ(result.request.target, "/");
  ASSERT_NE(result.request.header("host"), nullptr);
}

TEST(HttpParse, TruncatedRequestIsIncomplete) {
  EXPECT_EQ(server::parse_request("").status,
            server::ParseStatus::kIncomplete);
  EXPECT_EQ(server::parse_request("GET / HT").status,
            server::ParseStatus::kIncomplete);
  EXPECT_EQ(server::parse_request("GET / HTTP/1.1\r\nHost: x\r\n").status,
            server::ParseStatus::kIncomplete);
}

TEST(HttpParse, OversizedHeadIsTooLarge) {
  // A terminated head over the limit, and an unterminated flood.
  std::string big = "GET / HTTP/1.1\r\nX-Pad: ";
  big += std::string(1024, 'x');
  big += "\r\n\r\n";
  EXPECT_EQ(server::parse_request(big, 256).status,
            server::ParseStatus::kTooLarge);
  EXPECT_EQ(server::parse_request(std::string(4096, 'a'), 256).status,
            server::ParseStatus::kTooLarge);
}

TEST(HttpParse, BadMethodsAreRejected) {
  EXPECT_EQ(server::parse_request("get / HTTP/1.1\r\n\r\n").status,
            server::ParseStatus::kBad);
  EXPECT_EQ(server::parse_request("G=T / HTTP/1.1\r\n\r\n").status,
            server::ParseStatus::kBad);
  EXPECT_EQ(server::parse_request(" / HTTP/1.1\r\n\r\n").status,
            server::ParseStatus::kBad);
}

TEST(HttpParse, BadTargetsAndVersionsAreRejected) {
  EXPECT_EQ(server::parse_request("GET index.html HTTP/1.1\r\n\r\n").status,
            server::ParseStatus::kBad);
  EXPECT_EQ(server::parse_request("GET / HTTP/2.0\r\n\r\n").status,
            server::ParseStatus::kBad);
  EXPECT_EQ(server::parse_request("GET /  HTTP/1.1\r\n\r\n").status,
            server::ParseStatus::kBad);  // double space
  EXPECT_EQ(server::parse_request("GARBAGE\r\n\r\n").status,
            server::ParseStatus::kBad);
}

TEST(HttpParse, BadHeadersAreRejected) {
  EXPECT_EQ(
      server::parse_request("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").status,
      server::ParseStatus::kBad);
  EXPECT_EQ(
      server::parse_request("GET / HTTP/1.1\r\n: empty-name\r\n\r\n").status,
      server::ParseStatus::kBad);
  // obs-fold continuation lines are long dead.
  EXPECT_EQ(server::parse_request(
                "GET / HTTP/1.1\r\nA: b\r\n  folded\r\n\r\n")
                .status,
            server::ParseStatus::kBad);
}

TEST(HttpRequest, HeaderLookupIsCaseInsensitive) {
  const auto result = server::parse_request(
      "GET / HTTP/1.1\r\nIf-None-Match: \"abc\"\r\n\r\n");
  ASSERT_EQ(result.status, server::ParseStatus::kOk);
  const auto* value = result.request.header("If-None-Match");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "\"abc\"");
  EXPECT_NE(result.request.header("if-none-match"), nullptr);
  EXPECT_EQ(result.request.header("absent"), nullptr);
}

TEST(HttpRequest, PathAndQuerySplitAtQuestionMark) {
  const auto result =
      server::parse_request("GET /search?q=races&n=5 HTTP/1.1\r\n\r\n");
  ASSERT_EQ(result.status, server::ParseStatus::kOk);
  EXPECT_EQ(result.request.path(), "/search");
  EXPECT_EQ(result.request.query(), "q=races&n=5");
}

TEST(HttpRequest, KeepAliveDefaultsByVersion) {
  auto http11 = server::parse_request("GET / HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(http11.request.keep_alive());
  auto closed = server::parse_request(
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(closed.request.keep_alive());
  auto http10 = server::parse_request("GET / HTTP/1.0\r\n\r\n");
  EXPECT_FALSE(http10.request.keep_alive());
  auto http10_keep = server::parse_request(
      "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
  EXPECT_TRUE(http10_keep.request.keep_alive());
}

TEST(HttpRequest, ConnectionHeaderMatchesWholeTokensNotSubstrings) {
  // Regression: substring matching read "close" out of unrelated tokens
  // and closed keep-alive connections that never asked for it.
  auto listed = server::parse_request(
      "GET / HTTP/1.1\r\nConnection: keep-alive, x-close-hint\r\n\r\n");
  EXPECT_TRUE(listed.request.keep_alive());
  auto upgrade = server::parse_request(
      "GET / HTTP/1.1\r\nConnection: upgrade-close-notify\r\n\r\n");
  EXPECT_TRUE(upgrade.request.keep_alive());

  // ...while real "close" tokens still close, whatever the position,
  // case, or surrounding whitespace.
  auto second = server::parse_request(
      "GET / HTTP/1.1\r\nConnection: te, close\r\n\r\n");
  EXPECT_FALSE(second.request.keep_alive());
  auto spaced = server::parse_request(
      "GET / HTTP/1.1\r\nConnection:   CLOSE  \r\n\r\n");
  EXPECT_FALSE(spaced.request.keep_alive());

  // HTTP/1.0 needs a whole "keep-alive" token to stay open; a token that
  // merely contains it is not an opt-in.
  auto http10_other = server::parse_request(
      "GET / HTTP/1.0\r\nConnection: proxy-keep-alive\r\n\r\n");
  EXPECT_FALSE(http10_other.request.keep_alive());
  auto http10_listed = server::parse_request(
      "GET / HTTP/1.0\r\nConnection: te, keep-alive\r\n\r\n");
  EXPECT_TRUE(http10_listed.request.keep_alive());
}

TEST(HttpResponse, SerializeAddsStatusLineAndContentLength) {
  server::Response response;
  response.set("Content-Type", "text/plain; charset=utf-8");
  response.body = "hello\n";
  const std::string wire = server::serialize(response);
  EXPECT_TRUE(strs::starts_with(wire, "HTTP/1.1 200 OK\r\n"));
  EXPECT_TRUE(strs::contains(wire, "Content-Length: 6\r\n"));
  EXPECT_TRUE(strs::ends_with(wire, "\r\n\r\nhello\n"));
}

TEST(HttpResponse, HeadKeepsLengthButDropsBody) {
  server::Response response;
  response.body = "0123456789";
  const std::string wire = server::serialize(response, /*head_only=*/true);
  EXPECT_TRUE(strs::contains(wire, "Content-Length: 10\r\n"));
  EXPECT_TRUE(strs::ends_with(wire, "\r\n\r\n"));
}

TEST(HttpResponse, NotModifiedNeverCarriesABody) {
  server::Response response;
  response.status = 304;
  response.body = "should never appear";
  const std::string wire = server::serialize(response);
  EXPECT_TRUE(strs::starts_with(wire, "HTTP/1.1 304 Not Modified\r\n"));
  EXPECT_FALSE(strs::contains(wire, "should never appear"));
  EXPECT_FALSE(strs::contains(wire, "Content-Length"));
}

TEST(HttpResponse, SetReplacesAnExistingHeader) {
  server::Response response;
  response.set("Connection", "keep-alive");
  response.set("Connection", "close");
  ASSERT_EQ(response.headers.size(), 1u);
  EXPECT_EQ(response.headers[0].second, "close");
}

TEST(Http, StatusReasonsForServedCodes) {
  EXPECT_EQ(server::status_reason(200), "OK");
  EXPECT_EQ(server::status_reason(304), "Not Modified");
  EXPECT_EQ(server::status_reason(400), "Bad Request");
  EXPECT_EQ(server::status_reason(431), "Request Header Fields Too Large");
  EXPECT_EQ(server::status_reason(599), "Unknown");
}

TEST(HttpRequest, PathAndQueryEdgeCases) {
  // Empty query: '?' present but nothing after it.
  auto bare_mark = server::parse_request("GET /a? HTTP/1.1\r\n\r\n");
  ASSERT_EQ(bare_mark.status, server::ParseStatus::kOk);
  EXPECT_EQ(bare_mark.request.path(), "/a");
  EXPECT_EQ(bare_mark.request.query(), "");

  // No query at all.
  auto no_query = server::parse_request("GET /a HTTP/1.1\r\n\r\n");
  EXPECT_EQ(no_query.request.path(), "/a");
  EXPECT_EQ(no_query.request.query(), "");

  // Only the first '?' splits; later ones belong to the query.
  auto second_mark = server::parse_request("GET /a?x=1?y=2 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(second_mark.request.path(), "/a");
  EXPECT_EQ(second_mark.request.query(), "x=1?y=2");

  // Root with query.
  auto root = server::parse_request("GET /?q=1 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(root.request.path(), "/");
  EXPECT_EQ(root.request.query(), "q=1");
}

TEST(HttpUrlDecode, DecodesEscapesAndPlus) {
  EXPECT_EQ(server::url_decode("message+passing"), "message passing");
  EXPECT_EQ(server::url_decode("message%20passing"), "message passing");
  EXPECT_EQ(server::url_decode("%41%62c"), "Abc");
  EXPECT_EQ(server::url_decode("cs2013%3APD-Comm"), "cs2013:PD-Comm");
  EXPECT_EQ(server::url_decode("a%26b"), "a&b");
  // In path context '+' is literal.
  EXPECT_EQ(server::url_decode("a+b", /*plus_as_space=*/false), "a+b");
}

TEST(HttpUrlDecode, InvalidEscapesPassThrough) {
  EXPECT_EQ(server::url_decode("100%"), "100%");
  EXPECT_EQ(server::url_decode("100%2"), "100%2");
  EXPECT_EQ(server::url_decode("%zz"), "%zz");
  EXPECT_EQ(server::url_decode("%%41"), "%A");
}

TEST(HttpQueryParams, ParsesTypicalSearchQueries) {
  const auto params = server::parse_query_params("q=message+passing&limit=5");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].first, "q");
  EXPECT_EQ(params[0].second, "message passing");
  EXPECT_EQ(params[1].first, "limit");
  EXPECT_EQ(params[1].second, "5");
}

TEST(HttpQueryParams, EdgeCases) {
  // Empty query.
  EXPECT_TRUE(server::parse_query_params("").empty());

  // Key with '=' but no value, and key with no '=' at all.
  auto no_value = server::parse_query_params("a=&b");
  ASSERT_EQ(no_value.size(), 2u);
  EXPECT_EQ(no_value[0], (std::pair<std::string, std::string>{"a", ""}));
  EXPECT_EQ(no_value[1], (std::pair<std::string, std::string>{"b", ""}));

  // Repeated keys are preserved in order.
  auto repeated = server::parse_query_params("q=first&q=second");
  ASSERT_EQ(repeated.size(), 2u);
  EXPECT_EQ(repeated[0].second, "first");
  EXPECT_EQ(repeated[1].second, "second");

  // An encoded '&' inside a value does not split the pair.
  auto encoded_amp = server::parse_query_params("q=salt%26pepper&x=1");
  ASSERT_EQ(encoded_amp.size(), 2u);
  EXPECT_EQ(encoded_amp[0].second, "salt&pepper");

  // Empty pairs (leading/trailing/double '&') are skipped.
  auto sparse = server::parse_query_params("&a=1&&b=2&");
  ASSERT_EQ(sparse.size(), 2u);

  // Encoded '=' in the value survives; only the first '=' splits.
  auto eq = server::parse_query_params("expr=a%3Db=c");
  ASSERT_EQ(eq.size(), 1u);
  EXPECT_EQ(eq[0].second, "a=b=c");
}

TEST(HttpErrorResponse, FiveOhThreeCarriesRetryAfter) {
  const auto response = server::error_response(503);
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.body, "503 Service Unavailable\n");
  ASSERT_NE(response.header("retry-after"), nullptr);
  EXPECT_EQ(*response.header("retry-after"), "1");
  ASSERT_NE(response.header("connection"), nullptr);
  EXPECT_EQ(*response.header("connection"), "close");
  // The header survives serialization onto the wire.
  const std::string wire = server::serialize(response);
  EXPECT_TRUE(strs::contains(wire, "HTTP/1.1 503 Service Unavailable\r\n"));
  EXPECT_TRUE(strs::contains(wire, "Retry-After: 1\r\n"));
}

TEST(HttpErrorResponse, OtherStatusesHaveNoRetryAfter) {
  for (int status : {400, 404, 408, 431}) {
    const auto response = server::error_response(status);
    EXPECT_EQ(response.status, status);
    EXPECT_EQ(response.header("retry-after"), nullptr) << status;
    ASSERT_NE(response.header("connection"), nullptr);
    EXPECT_EQ(*response.header("connection"), "close");
  }
}

namespace {

/// Feeds `wire` to parse_response in the given pieces, the way a client
/// accumulates a socket buffer, and returns the head parsed once the
/// buffer first stops being kIncomplete (or after the last piece).
server::ResponseHead feed(const std::vector<std::string>& pieces,
                          std::string& buffer) {
  buffer.clear();
  server::ResponseHead head;
  for (const std::string& piece : pieces) {
    buffer += piece;
    head = server::parse_response(buffer);
    if (head.parse != server::ParseStatus::kIncomplete) break;
  }
  return head;
}

std::vector<std::pair<std::string, std::string>> header_strings(
    const server::ResponseHead& head) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, value] : head.headers) {
    out.emplace_back(std::string(name), std::string(value));
  }
  return out;
}

/// Valid responses of every framing the parser distinguishes.
const std::vector<std::string>& valid_responses() {
  static const std::vector<std::string> kResponses = {
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
      "Content-Length: 5\r\nConnection: keep-alive\r\n\r\nhello",
      "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
      "HTTP/1.1 304 Not Modified\r\nETag: \"abc\"\r\n\r\n",
      "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
      "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n"
      "Connection: close\r\n\r\nunframed body until EOF",
      "HTTP/1.1 200\r\ncontent-length:3\r\n\r\nabc",
  };
  return kResponses;
}

}  // namespace

TEST(HttpResponseParse, FramedKeepAliveResponse) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
      "Content-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloNEXT";
  const auto head = server::parse_response(wire);
  ASSERT_EQ(head.parse, server::ParseStatus::kOk);
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.body_offset, wire.find("hello"));
  ASSERT_TRUE(head.content_length.has_value());
  EXPECT_EQ(*head.content_length, 5u);
  EXPECT_FALSE(head.close);
  EXPECT_EQ(head.header("CONTENT-TYPE").value_or(""),
            "text/html; charset=utf-8");
  EXPECT_FALSE(head.header("etag").has_value());
  EXPECT_FALSE(head.complete(head.body_offset + 4));
  EXPECT_TRUE(head.complete(head.body_offset + 5));
  EXPECT_TRUE(head.complete(wire.size()));  // trailing bytes are not ours
}

TEST(HttpResponseParse, MalformedHeadsAreBad) {
  const std::vector<std::pair<const char*, std::string>> kCases = {
      {"non-numeric status", "HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n"},
      {"partly numeric status", "HTTP/1.1 2x0 OK\r\n\r\n"},
      {"four-digit status", "HTTP/1.1 2000 OK\r\n\r\n"},
      {"status below 100", "HTTP/1.1 099 Odd\r\n\r\n"},
      {"status above 599", "HTTP/1.1 600 Odd\r\n\r\n"},
      {"no space before reason", "HTTP/1.1 200OK\r\n\r\n"},
      {"unknown major version", "HTTP/2.0 200 OK\r\n\r\n"},
      {"not HTTP at all", "garbage\r\n\r\n"},
      {"non-numeric length", "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n"},
      {"negative length", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"},
      {"signed length", "HTTP/1.1 200 OK\r\nContent-Length: +3\r\n\r\nabc"},
      {"empty length", "HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n"},
      {"length list", "HTTP/1.1 200 OK\r\nContent-Length: 3, 3\r\n\r\nabc"},
      {"overflowing length",
       "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551616\r\n\r\n"},
      {"conflicting lengths",
       "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n"
       "abcd"},
      {"bare-LF head", "HTTP/1.1 200 OK\nContent-Length: 0\n\n"},
      {"bare LF on one header line",
       "HTTP/1.1 200 OK\r\nX-A: 1\nContent-Length: 0\r\n\r\n"},
      {"bare LF ending the head", "HTTP/1.1 200 OK\r\nContent-Length: 0\n\n"},
      {"obs-fold continuation",
       "HTTP/1.1 200 OK\r\nX-A: 1\r\n  folded\r\n\r\n"},
      {"header without colon", "HTTP/1.1 200 OK\r\nNoColon\r\n\r\n"},
      {"empty header name", "HTTP/1.1 200 OK\r\n: value\r\n\r\n"},
      {"space in header name", "HTTP/1.1 200 OK\r\nBad Name: x\r\n\r\n"},
      {"control byte in value", "HTTP/1.1 200 OK\r\nX-A: a\x01z\r\n\r\n"},
      {"chunked body",
       "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n"},
  };
  for (const auto& [name, wire] : kCases) {
    const auto head = server::parse_response(wire);
    EXPECT_EQ(head.parse, server::ParseStatus::kBad) << name;
    EXPECT_EQ(head.status, 0) << name;
    EXPECT_TRUE(head.headers.empty()) << name;
  }
}

TEST(HttpResponseParse, GarbageFailsBeforeTheHeadEnds) {
  // A stream that can no longer become a status line is bad at once,
  // instead of being buffered until a timeout.
  EXPECT_EQ(server::parse_response("HTTX").parse, server::ParseStatus::kBad);
  EXPECT_EQ(server::parse_response("<html>").parse,
            server::ParseStatus::kBad);
  EXPECT_EQ(server::parse_response("HTTP/1.1 20").parse,
            server::ParseStatus::kIncomplete);
  EXPECT_EQ(server::parse_response("").parse,
            server::ParseStatus::kIncomplete);
  EXPECT_EQ(server::parse_response("HTTP/1.1 200 OK\r\nContent-Length: abc")
                .parse,
            server::ParseStatus::kIncomplete);  // the line is not done yet
}

TEST(HttpResponseParse, OversizedHeadIsBad) {
  const auto padded = [](std::size_t pad) {
    return "HTTP/1.1 200 OK\r\nX-Pad: " + std::string(pad, 'x') +
           "\r\nContent-Length: 0\r\n\r\n";
  };
  EXPECT_EQ(server::parse_response(padded(1000)).parse,
            server::ParseStatus::kOk);
  const std::string oversized = padded(server::kMaxResponseHeadBytes);
  EXPECT_EQ(server::parse_response(oversized).parse,
            server::ParseStatus::kBad);
  // Still unterminated, but already past the cap: no point waiting.
  EXPECT_EQ(server::parse_response(
                oversized.substr(0, server::kMaxResponseHeadBytes + 1))
                .parse,
            server::ParseStatus::kBad);
}

TEST(HttpResponseParse, FramingAndCloseSemantics) {
  const auto same_lengths = server::parse_response(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok");
  ASSERT_EQ(same_lengths.parse, server::ParseStatus::kOk);
  EXPECT_EQ(same_lengths.content_length, std::optional<std::uint64_t>(2));

  // Statuses that never carry a body are framed at zero, whatever the
  // Content-Length says (a 304 may repeat the full entity's length).
  for (const char* wire :
       {"HTTP/1.1 304 Not Modified\r\nContent-Length: 120\r\n\r\n",
        "HTTP/1.1 204 No Content\r\n\r\n", "HTTP/1.1 100 Continue\r\n\r\n"}) {
    const auto head = server::parse_response(wire);
    ASSERT_EQ(head.parse, server::ParseStatus::kOk) << wire;
    EXPECT_EQ(head.content_length, std::optional<std::uint64_t>(0)) << wire;
    EXPECT_FALSE(head.close) << wire;
    EXPECT_TRUE(head.complete(head.body_offset)) << wire;
  }

  const auto unframed =
      server::parse_response("HTTP/1.1 200 OK\r\n\r\nbody until EOF");
  ASSERT_EQ(unframed.parse, server::ParseStatus::kOk);
  EXPECT_FALSE(unframed.content_length.has_value());
  EXPECT_TRUE(unframed.close);
  EXPECT_FALSE(unframed.complete(1000));

  const auto explicit_close = server::parse_response(
      "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: Close\r\n\r\n");
  EXPECT_TRUE(explicit_close.close);
  const auto token_not_substring = server::parse_response(
      "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n"
      "Connection: keep-alive, x-close-hint\r\n\r\n");
  EXPECT_FALSE(token_not_substring.close);
  const auto old_default = server::parse_response(
      "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n");
  EXPECT_TRUE(old_default.close);
  const auto old_keep_alive = server::parse_response(
      "HTTP/1.0 200 OK\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_FALSE(old_keep_alive.close);
}

TEST(HttpResponseParse, ReadsWhatTheServerSerializes) {
  server::Response ok;
  ok.set("Content-Type", "text/plain");
  ok.body = "payload";
  for (const server::Response& response :
       {ok, server::error_response(400), server::error_response(503)}) {
    const std::string wire = server::serialize(response);
    const auto head = server::parse_response(wire);
    ASSERT_EQ(head.parse, server::ParseStatus::kOk) << wire;
    EXPECT_EQ(head.status, response.status);
    ASSERT_TRUE(head.complete(wire.size()));
    EXPECT_EQ(wire.substr(head.body_offset), response.body);
  }
}

TEST(HttpResponseParse, SplitAtEveryOffsetMatchesWhole) {
  for (const std::string& wire : valid_responses()) {
    std::string buffer;
    const auto whole = feed({wire}, buffer);
    ASSERT_EQ(whole.parse, server::ParseStatus::kOk) << wire;
    for (std::size_t split = 0; split <= wire.size(); ++split) {
      const auto head =
          feed({wire.substr(0, split), wire.substr(split)}, buffer);
      ASSERT_EQ(head.parse, server::ParseStatus::kOk) << split << ": " << wire;
      EXPECT_EQ(head.status, whole.status) << split;
      EXPECT_EQ(head.body_offset, whole.body_offset) << split;
      EXPECT_EQ(head.content_length, whole.content_length) << split;
      EXPECT_EQ(head.close, whole.close) << split;
      EXPECT_EQ(header_strings(head), header_strings(whole)) << split;
      // Every proper prefix of the head is incomplete, never bad.
      if (split < whole.body_offset) {
        EXPECT_EQ(server::parse_response(wire.substr(0, split)).parse,
                  server::ParseStatus::kIncomplete)
            << split << ": " << wire;
      }
    }
    // Byte by byte, the way a slow peer delivers it.
    std::vector<std::string> bytes;
    for (const char c : wire) bytes.emplace_back(1, c);
    const auto trickled = feed(bytes, buffer);
    EXPECT_EQ(trickled.parse, server::ParseStatus::kOk);
    EXPECT_EQ(buffer.size(), whole.body_offset)
        << "the head completes exactly at its blank line";
  }
}
