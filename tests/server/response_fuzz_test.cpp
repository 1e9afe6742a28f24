// Robustness sweep for server::parse_response, the one response-head parser
// every client here frames replies with: thousands of seeded mutations of
// valid responses (byte flips, HTTP-significant insertions, deletions,
// truncations) must never crash or read past the buffer, and whatever the
// parser accepts must be internally consistent. Run under ASan in CI, where
// an over-read fails loudly instead of passing by luck.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "pdcu/server/http.hpp"
#include "pdcu/support/rng.hpp"

namespace server = pdcu::server;

namespace {

const std::vector<std::string>& seeds() {
  static const std::vector<std::string> kSeeds = {
      "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
      "Content-Length: 12\r\nETag: \"e1\"\r\nConnection: keep-alive\r\n\r\n"
      "<p>hello</p>",
      "HTTP/1.1 304 Not Modified\r\nETag: \"e1\"\r\n"
      "Connection: keep-alive\r\n\r\n",
      "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n"
      "Connection: close\r\nRetry-After: 1\r\nContent-Length: 24\r\n\r\n"
      "503 Service Unavailable\n",
      "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
      "HTTP/1.1 200 OK\r\n\r\nunframed",
  };
  return kSeeds;
}

/// Fragments that steer mutations toward the parser's decisions.
const std::vector<std::string>& fragments() {
  static const std::vector<std::string> kFragments = {
      "\r",  "\n",     "\r\n",           ":",  " ",   "\t", "0",
      "9",   "-",      "Content-Length: ", "HTTP/1.", "Connection: close",
      "\x00", "\x7f", "\xff", "18446744073709551616", "Transfer-Encoding: x",
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

/// Everything the parser returns must describe `data` consistently.
void expect_consistent(std::string_view data,
                       const server::ResponseHead& head) {
  ASSERT_NE(head.parse, server::ParseStatus::kTooLarge);
  if (head.parse != server::ParseStatus::kOk) {
    EXPECT_EQ(head.status, 0);
    EXPECT_TRUE(head.headers.empty());
    return;
  }
  EXPECT_GE(head.status, 100);
  EXPECT_LE(head.status, 599);
  ASSERT_GE(head.body_offset, 4u);
  ASSERT_LE(head.body_offset, data.size());
  EXPECT_EQ(data.substr(head.body_offset - 4, 4), "\r\n\r\n");
  EXPECT_TRUE(head.content_length.has_value() || head.close);
  // Header views lie inside the head: nothing was read past the buffer.
  const char* begin = data.data();
  const char* end = data.data() + head.body_offset;
  for (const auto& [name, value] : head.headers) {
    EXPECT_FALSE(name.empty());
    EXPECT_GE(name.data(), begin);
    EXPECT_LE(name.data() + name.size(), end);
    EXPECT_GE(value.data(), begin);
    EXPECT_LE(value.data() + value.size(), end);
  }
  // Incrementality holds for mutants too: every proper prefix of an
  // accepted head is still waiting for bytes.
  for (std::size_t cut : {std::size_t{0}, head.body_offset / 2,
                          head.body_offset - 1}) {
    EXPECT_EQ(server::parse_response(data.substr(0, cut)).parse,
              server::ParseStatus::kIncomplete)
        << cut;
  }
}

}  // namespace

class ResponseFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseFuzz, MutatedResponsesNeverCrashOrOverRead) {
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
    const server::ResponseHead head = server::parse_response(view);
    expect_consistent(view, head);
    if (head.parse == server::ParseStatus::kOk) ++accepted;
    if (head.parse == server::ParseStatus::kBad) ++rejected;
  }
  // The sweep exercised both verdicts, not just one.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ResponseFuzz, RandomBytesNeverCrash) {
  pdcu::Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    std::string data = rng.chance(0.5) ? std::string("HTTP/1.1 ") : "";
    const auto length = rng.below(64);
    for (std::uint64_t i = 0; i < length; ++i) {
      data += static_cast<char>(rng.below(256));
    }
    expect_consistent(data, server::parse_response(data));
  }
}
