// Robustness sweep for server::parse_request, the parser every byte a client
// sends goes through first: thousands of seeded mutations of valid requests
// (byte flips, HTTP-significant insertions, deletions, truncations) must
// never crash or read past the buffer, and whatever the parser accepts must
// be internally consistent. Run under ASan and UBSan in CI, where an
// over-read fails loudly instead of passing by luck.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/server/http.hpp"
#include "pdcu/support/rng.hpp"

namespace server = pdcu::server;

namespace {

const std::vector<std::string>& seeds() {
  static const std::vector<std::string> kSeeds = {
      "GET /activities/findsmallestcard/ HTTP/1.1\r\nHost: localhost\r\n"
      "Accept: text/html\r\nIf-None-Match: \"e1\"\r\n\r\n",
      "GET /api/search?q=sorting%20network+cs2013%3APD_1&limit=5 HTTP/1.1\r\n"
      "Host: x\r\nConnection: keep-alive\r\n\r\n",
      "HEAD / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "POST /api/catalog.json HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
      "GET /healthz HTTP/1.1\nHost: bare-lf\n\n",
      "GET /metrics HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\nHost: pipelined\r\n\r\n",
      "DELETE /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "X-Request-Id: abc-123\r\n\r\n",
  };
  return kSeeds;
}

/// Fragments that steer mutations toward the parser's decisions.
const std::vector<std::string>& fragments() {
  static const std::vector<std::string> kFragments = {
      "\r",   "\n",   "\r\n", "\n\n",   "\r\n\r\n", ":",     " ",
      "\t",   "/",    "?",    "%",      "%2",       "GET ",  "HTTP/1.",
      "HTTP/1.1", "Host: ", "Content-Length: ", "Connection: close",
      "\x00", "\x7f", "\xff", "a",
  };
  return kFragments;
}

std::string mutate(pdcu::Rng& rng, std::string wire) {
  const auto edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = wire.empty() ? 0 : rng.below(wire.size() + 1);
    switch (rng.below(5)) {
      case 0:  // flip a byte
        if (at < wire.size()) {
          wire[at] = static_cast<char>(rng.below(256));
        }
        break;
      case 1: {  // insert a significant fragment
        const std::string& piece = fragments()[rng.below(fragments().size())];
        wire.insert(at, piece.empty() ? std::string(1, '\0') : piece);
        break;
      }
      case 2:  // delete a run
        if (at < wire.size()) wire.erase(at, 1 + rng.below(8));
        break;
      case 3:  // truncate
        wire.resize(at);
        break;
      default:  // duplicate a run in place
        if (at < wire.size()) {
          wire.insert(at, wire.substr(at, 1 + rng.below(24)));
        }
        break;
    }
  }
  return wire;
}

bool is_upper_token(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return c >= 'A' && c <= 'Z';
  });
}

/// Everything the parser returns must describe `data` consistently.
void expect_consistent(std::string_view data, std::size_t max_bytes,
                       const server::ParseResult& result) {
  if (result.status != server::ParseStatus::kOk) {
    EXPECT_EQ(result.consumed, 0u);
    return;
  }
  const server::Request& request = result.request;
  ASSERT_LE(result.consumed, data.size());
  ASSERT_LE(result.consumed, max_bytes);
  // The head ends in a blank line, CRLF or bare LF.
  const std::string_view head = data.substr(0, result.consumed);
  EXPECT_TRUE(head.ends_with("\r\n\r\n") || head.ends_with("\n\n")) << head;
  EXPECT_TRUE(is_upper_token(request.method)) << request.method;
  ASSERT_FALSE(request.target.empty());
  EXPECT_EQ(request.target.front(), '/');
  EXPECT_TRUE(request.version == "HTTP/1.0" || request.version == "HTTP/1.1")
      << request.version;
  for (const auto& [name, value] : request.headers) {
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find(':'), std::string::npos) << name;
    EXPECT_TRUE(std::none_of(name.begin(), name.end(), [](char c) {
      return c >= 'A' && c <= 'Z';
    })) << name;
  }
  // The accessors the router and the reactor call on every request.
  EXPECT_LE(request.path().size(), request.target.size());
  EXPECT_LE(request.query().size(), request.target.size());
  (void)request.keep_alive();
  (void)request.has_body();
  // The head alone parses to the same request: the bytes after it (a body
  // or a pipelined request) play no part.
  const auto alone = server::parse_request(head, max_bytes);
  ASSERT_EQ(alone.status, server::ParseStatus::kOk);
  EXPECT_EQ(alone.consumed, result.consumed);
  EXPECT_EQ(alone.request.method, request.method);
  EXPECT_EQ(alone.request.target, request.target);
  EXPECT_EQ(alone.request.headers, request.headers);
  // Every proper prefix of an accepted head is still waiting for bytes.
  for (std::size_t cut : {std::size_t{0}, result.consumed / 2,
                          result.consumed - 1}) {
    EXPECT_EQ(server::parse_request(data.substr(0, cut), max_bytes).status,
              server::ParseStatus::kIncomplete)
        << cut;
  }
}

}  // namespace

class RequestFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RequestFuzz, MutatedRequestsNeverCrashOrOverRead) {
  pdcu::Rng rng(GetParam());
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string& seed = seeds()[rng.below(seeds().size())];
    // An exact-size heap copy, so a read one byte past the end is an ASan
    // heap-buffer-overflow rather than a silent read of spare capacity.
    const std::string mutant = mutate(rng, seed);
    const std::vector<char> exact(mutant.begin(), mutant.end());
    const std::string_view view(exact.data(), exact.size());
    // A small cap now and then, so kTooLarge is reached as well.
    const std::size_t max_bytes = rng.chance(0.2)
                                      ? 16 + rng.below(64)
                                      : server::kDefaultMaxRequestBytes;
    const server::ParseResult result = server::parse_request(view, max_bytes);
    expect_consistent(view, max_bytes, result);
    if (result.status == server::ParseStatus::kOk) ++accepted;
    if (result.status == server::ParseStatus::kBad) ++rejected;
  }
  // The sweep exercised both verdicts, not just one.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(RequestFuzz, RandomBytesNeverCrash) {
  pdcu::Rng rng(2025);
  for (int round = 0; round < 2000; ++round) {
    std::string data = rng.chance(0.5) ? std::string("GET /") : "";
    const auto length = rng.below(64);
    for (std::uint64_t i = 0; i < length; ++i) {
      data += static_cast<char>(rng.below(256));
    }
    if (rng.chance(0.5)) data += rng.chance(0.5) ? "\r\n\r\n" : "\n\n";
    const std::vector<char> exact(data.begin(), data.end());
    const std::string_view view(exact.data(), exact.size());
    expect_consistent(view, server::kDefaultMaxRequestBytes,
                      server::parse_request(view));
  }
}
