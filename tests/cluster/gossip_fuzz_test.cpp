// Robustness sweep for GossipMap::merge_digest, which every replica and
// front tier runs on digest bytes a peer sent over the wire: thousands of
// seeded mutations of valid encode() digests (byte flips, field-significant
// insertions, deletions, truncations), and plain random bytes, must never
// crash, and whatever the merge keeps must be a well-behaved map. Run under
// ASan and UBSan in CI, where an over-read fails loudly instead of passing
// by luck.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/cluster/gossip.hpp"
#include "pdcu/support/rng.hpp"

namespace cluster = pdcu::cluster;
using cluster::GossipMap;

namespace {

/// Valid digests, each the encode() of a map built the way the fleet
/// builds its own: self updates and merged rumors.
const std::vector<std::string>& seeds() {
  static const std::vector<std::string> kSeeds = [] {
    std::vector<std::string> digests;
    GossipMap fleet;
    fleet.update_self("replica-0", 1, false);
    fleet.update_self("replica-1", 3, true);
    fleet.update_self("replica-2", 7, false);
    fleet.update_self("replica-2", 8, true);
    fleet.update_self("front", 0, false);
    digests.push_back(fleet.encode());

    GossipMap single;
    single.update_self("127.0.0.1:18432", 42, false);
    digests.push_back(single.encode());

    // Versions and epochs near the top of the u64 range, and a relayed
    // rumor about a node this map never heard from directly.
    GossipMap wide;
    wide.merge_digest("r 18446744073709551615 1 18446744073709551614\n"
                      "s 0 0 1\n");
    wide.update_self("t", 5, false);
    digests.push_back(wide.encode());
    return digests;
  }();
  return kSeeds;
}

/// Fragments that steer mutations toward the digest parser's decisions.
const std::vector<std::string>& fragments() {
  static const std::vector<std::string> kFragments = {
      " ",  "  ", "\n", "\r\n", "\r", "\t", "0", "1", "2", "9",
      "18446744073709551615", "18446744073709551616", "-", "+",
      "replica-0", "\x00", "\x7f", "\xff", "a",
  };
  return kFragments;
}

std::string mutate(pdcu::Rng& rng, std::string digest) {
  const auto edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = digest.empty() ? 0 : rng.below(digest.size() + 1);
    switch (rng.below(5)) {
      case 0:  // flip a byte
        if (at < digest.size()) {
          digest[at] = static_cast<char>(rng.below(256));
        }
        break;
      case 1: {  // insert a significant fragment
        const std::string& piece = fragments()[rng.below(fragments().size())];
        digest.insert(at, piece.empty() ? std::string(1, '\0') : piece);
        break;
      }
      case 2:  // delete a run
        if (at < digest.size()) digest.erase(at, 1 + rng.below(8));
        break;
      case 3:  // truncate
        digest.resize(at);
        break;
      default:  // duplicate a run in place
        if (at < digest.size()) {
          digest.insert(at, digest.substr(at, 1 + rng.below(24)));
        }
        break;
    }
  }
  return digest;
}

/// Lines as the wire defines them: '\n'-terminated, the last one possibly
/// unterminated.
std::size_t line_count(std::string_view digest) {
  const auto newlines =
      static_cast<std::size_t>(std::count(digest.begin(), digest.end(), '\n'));
  return newlines + (!digest.empty() && digest.back() != '\n' ? 1 : 0);
}

/// Merges `digest` into a fresh map and checks the invariants; returns
/// how many entries it kept.
std::size_t expect_well_behaved(std::string_view digest) {
  // An exact-size heap copy, so a read one byte past the end is an ASan
  // heap-buffer-overflow rather than a silent read of spare capacity.
  const std::vector<char> exact(digest.begin(), digest.end());
  const std::string_view view(exact.data(), exact.size());

  GossipMap map;
  const std::size_t changed = map.merge_digest(view);
  EXPECT_LE(map.size(), line_count(view));
  EXPECT_LE(changed, line_count(view));
  EXPECT_LE(map.size(), changed);
  // Merging is idempotent: the same digest again changes nothing.
  EXPECT_EQ(map.merge_digest(view), 0u);
  // What the map kept encodes to a digest that rebuilds the same map.
  GossipMap rebuilt;
  EXPECT_EQ(rebuilt.merge_digest(map.encode()), map.size());
  EXPECT_EQ(rebuilt.snapshot(), map.snapshot());
  // A map that already knows the fleet grows by at most one entry a line.
  GossipMap known;
  known.merge_digest(seeds().front());
  const std::size_t before = known.size();
  known.merge_digest(view);
  EXPECT_LE(known.size(), before + line_count(view));
  return map.size();
}

}  // namespace

class GossipFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GossipFuzz, MutatedDigestsMergeIntoAWellBehavedMap) {
  pdcu::Rng rng(GetParam());
  std::size_t kept_some = 0;
  std::size_t dropped_some = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string& seed = seeds()[rng.below(seeds().size())];
    const std::string mutant = mutate(rng, seed);
    const std::size_t kept = expect_well_behaved(mutant);
    if (kept > 0) ++kept_some;
    if (kept < line_count(mutant)) ++dropped_some;
  }
  // The sweep exercised both verdicts: lines kept and lines skipped.
  EXPECT_GT(kept_some, 0u);
  EXPECT_GT(dropped_some, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GossipFuzz, SeedDigestsRoundTripWhole) {
  for (const std::string& seed : seeds()) {
    EXPECT_EQ(expect_well_behaved(seed), line_count(seed)) << seed;
  }
}

TEST(GossipFuzz, RandomBytesNeverCrash) {
  pdcu::Rng rng(2025);
  for (int round = 0; round < 2000; ++round) {
    std::string data;
    const auto length = rng.below(96);
    for (std::uint64_t i = 0; i < length; ++i) {
      // Bias toward the bytes a digest is made of, so some lines parse.
      data += rng.chance(0.5) ? " 0123456789\n"[rng.below(12)]
                              : static_cast<char>(rng.below(256));
    }
    expect_well_behaved(data);
  }
}
