// Unit tests for binary index persistence: round-trip fidelity, header
// validation, checksum detection, and truncation safety.
#include "pdcu/search/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/search/query.hpp"

namespace search = pdcu::search;
namespace core = pdcu::core;

namespace {

const search::SearchIndex& index() {
  static const search::SearchIndex kIndex =
      search::SearchIndex::build(core::Repository::builtin());
  return kIndex;
}

}  // namespace

TEST(IndexSerialize, RoundTripIsIdentical) {
  const std::string bytes = search::serialize_index(index());
  const auto loaded = search::deserialize_index(bytes);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_TRUE(loaded.value() == index());
}

TEST(IndexSerialize, RoundTripProducesIdenticalRankings) {
  const auto loaded =
      search::deserialize_index(search::serialize_index(index()));
  ASSERT_TRUE(loaded.has_value());
  const auto& taxonomy = core::Repository::builtin().index();
  for (const char* input :
       {"message passing", "sorting cs2013:PD-Algorithms", "course:CS2",
        "byzantine generals", "race condition"}) {
    const auto query = search::parse_query(input);
    const auto before = index().search(query, &taxonomy, 20);
    const auto after = loaded.value().search(query, &taxonomy, 20);
    ASSERT_EQ(before.size(), after.size()) << input;
    for (std::size_t h = 0; h < before.size(); ++h) {
      EXPECT_EQ(before[h].slug, after[h].slug) << input;
      EXPECT_EQ(before[h].score, after[h].score) << input;
      EXPECT_EQ(before[h].snippet.text, after[h].snippet.text) << input;
    }
  }
}

TEST(IndexSerialize, SaveAndLoadThroughTheFilesystem) {
  const auto path = std::filesystem::temp_directory_path() /
                    "pdcu_serialize_test.idx";
  ASSERT_TRUE(search::save_index(index(), path).has_value());
  const auto loaded = search::load_index(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_TRUE(loaded.value() == index());
  std::filesystem::remove(path);
}

TEST(IndexSerialize, RejectsForeignBytes) {
  const auto result = search::deserialize_index("not an index at all");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "search.index.magic");
}

TEST(IndexSerialize, RejectsWrongVersion) {
  std::string bytes = search::serialize_index(index());
  bytes[8] = 99;  // version field follows the 8-byte magic
  const auto result = search::deserialize_index(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "search.index.version");
}

TEST(IndexSerialize, DetectsCorruption) {
  std::string bytes = search::serialize_index(index());
  bytes[bytes.size() / 2] ^= 0x5a;  // flip payload bits
  const auto result = search::deserialize_index(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "search.index.checksum");
}

TEST(IndexSerialize, DetectsTruncation) {
  const std::string bytes = search::serialize_index(index());
  // Every truncation point must fail cleanly (either checksum or size),
  // never crash. Sample a few points including just-past-the-header.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{19}, std::size_t{21},
        bytes.size() / 2, bytes.size() - 1}) {
    const auto result = search::deserialize_index(bytes.substr(0, keep));
    EXPECT_FALSE(result.has_value()) << "kept " << keep;
  }
}

TEST(IndexSerialize, EmptyIndexRoundTrips) {
  const search::SearchIndex empty;
  const auto loaded =
      search::deserialize_index(search::serialize_index(empty));
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded.value().doc_count(), 0u);
  EXPECT_EQ(loaded.value().term_count(), 0u);
}

TEST(IndexSerialize, LoadedIndexOutlivesItsFile) {
  // A loaded index owns its payload: rewriting, truncating in place and
  // removing the file it came from changes nothing it serves.
  const auto path = std::filesystem::temp_directory_path() /
                    "pdcu_serialize_outlives_file.idx";
  ASSERT_TRUE(search::save_index(index(), path).has_value());
  const auto loaded = search::load_index(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;

  // Rewrite the same path with a far smaller index (one document).
  const core::Repository tiny(std::vector<core::Activity>{
      core::Repository::builtin().activities().front()});
  ASSERT_TRUE(
      search::save_index(search::SearchIndex::build(tiny), path).has_value());

  // The path now holds the new index, and no temporary is left behind.
  const auto reloaded = search::load_index(path);
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().doc_count(), 1u);
  for (const auto& entry :
       std::filesystem::directory_iterator(path.parent_path())) {
    EXPECT_EQ(entry.path().string().find(path.filename().string() + ".tmp"),
              std::string::npos)
        << entry.path();
  }

  std::filesystem::resize_file(path, 0);
  std::filesystem::remove(path);
  const auto& taxonomy = core::Repository::builtin().index();
  for (const char* input : {"message passing", "sorting", "race condition",
                            "byzantine generals", "course:CS2"}) {
    const auto query = search::parse_query(input);
    const auto want = index().search(query, &taxonomy, 20);
    const auto got = loaded.value().search(query, &taxonomy, 20);
    ASSERT_EQ(want.size(), got.size()) << input;
    for (std::size_t h = 0; h < want.size(); ++h) {
      EXPECT_EQ(want[h].slug, got[h].slug) << input;
      EXPECT_EQ(want[h].score, got[h].score) << input;
      EXPECT_EQ(want[h].snippet.text, got[h].snippet.text) << input;
    }
  }
  EXPECT_TRUE(loaded.value() == index());
}
