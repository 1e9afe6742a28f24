// Seeded mutation sweep for the front-matter parser. Every reload parses
// each edited activity file through md::parse_content, so no byte sequence
// an editor can save may crash it or leave it undecided. Valid activity
// headers (the paper's Fig. 1 and Fig. 2 shapes, a full activity header,
// continuation lines, comments, quoting) are mutated by seeded byte flips,
// insertions of front-matter-significant fragments, deletions, duplicated
// and swapped lines, and truncation. Every mutant must come back as a
// value or as an Error with a code and a message; a value's emitted form
// must parse again with the same keys in the same order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/markdown/frontmatter.hpp"
#include "pdcu/support/rng.hpp"
#include "pdcu/support/strings.hpp"

namespace md = pdcu::md;

namespace {

/// Well-formed content files the mutations start from.
const std::vector<std::string>& seeds() {
  static const std::vector<std::string> kSeeds = {
      "---\ntitle: \"FindSmallestCard\"\n"
      "cs2013: [\"PD_ParallelDecomposition\", \\\n"
      "    \"PD_ParallelAlgorithms\"]\n"
      "tcpp: [\"TCPP_Algorithms\", \"TCPP_Programming\"]\n---\n\nBody.\n",
      "---\ntitle: ArraySummationWithCards\ndate: 2019-11-05\nyear: 2019\n"
      "cs2013: [\"PD_ParallelDecomposition\", \"PD_ParallelAlgorithms\"]\n"
      "cs2013details: [\"PD_5\", \"PAAP_7\"]\n"
      "tcpp: [\"TCPP_Algorithms\", \"TCPP_Programming\"]\n"
      "tcppdetails: [\"C_CostsOfComputation\", \"C_Speedup\"]\n"
      "courses: [\"CS1\", \"CS2\", \"DSA\"]\nsenses: [\"touch\", \"visual\"]\n"
      "medium: [\"cards\", \"paper\"]\nsimulation: array_summation\n---\n\n"
      "## Details\n\nEach group sums a row of cards.\n",
      "---\n# a comment line\ntitle: 'Single quoted'  \n"
      "note: value with # hash # inside\n"
      "escaped: \"quote \\\" and backslash \\\\\"\n"
      "empty: \"\"\nlist: []\nbare: [a, b ,c]\n---\nbody\n---\nmore\n",
      "---\r\ntitle: CRLF file\r\ncourses: [\"CS0\"]\r\n---\r\nBody\r\n",
      "no front matter at all\n",
  };
  return kSeeds;
}

/// Fragments that mean something to the parser.
const std::vector<std::string>& fragments() {
  static const std::vector<std::string> kFragments = {
      "---", "\n---\n", ":", ": ", "[", "]", ",", "\"", "'", "\\", "\\\n",
      "#", " #", "\n", "\r", "\t", " ", "key: ", "[\"", "\"]", "[,]",
      std::string(1, '\0'), "\xff", "\xc3\xa9", "::", "[[", "]]",
  };
  return kFragments;
}

std::string mutate(pdcu::Rng& rng, std::string text) {
  const auto at = [&] { return text.empty() ? 0 : rng.below(text.size() + 1); };
  const auto edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.below(6)) {
      case 0:  // flip one byte
        if (!text.empty()) {
          text[rng.below(text.size())] ^=
              static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:  // insert a significant fragment
        text.insert(at(), fragments()[rng.below(fragments().size())]);
        break;
      case 2: {  // delete a short range
        const std::size_t from = at();
        text.erase(from, rng.below(12));
        break;
      }
      case 3: {  // duplicate a line
        auto lines = pdcu::strings::split_lines(text);
        if (lines.empty()) break;
        const std::size_t line = rng.below(lines.size());
        lines.insert(lines.begin() + line, lines[line]);
        text = pdcu::strings::join(lines, "\n");
        break;
      }
      case 4: {  // swap two lines
        auto lines = pdcu::strings::split_lines(text);
        if (lines.size() < 2) break;
        std::swap(lines[rng.below(lines.size())],
                  lines[rng.below(lines.size())]);
        text = pdcu::strings::join(lines, "\n");
        break;
      }
      case 5:  // truncate
        text.resize(at());
        break;
    }
  }
  return text;
}

/// A parse must decide: a value, or an Error that says what went wrong.
/// A value's emitted form parses again, with the same keys in order.
void expect_decided(const std::string& text) {
  const auto parsed = md::parse_content(text);
  if (!parsed.has_value()) {
    EXPECT_FALSE(parsed.error().code.empty()) << text;
    EXPECT_FALSE(parsed.error().message.empty()) << text;
    return;
  }
  const auto& entries = parsed.value().front.entries();
  const auto again =
      md::parse_content(parsed.value().front.to_string() + "\n" +
                        parsed.value().body + "\n");
  ASSERT_TRUE(again.has_value()) << text;
  const auto& reparsed = again.value().front.entries();
  ASSERT_EQ(reparsed.size(), entries.size()) << text;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(reparsed[i].first, entries[i].first) << text;
    EXPECT_EQ(reparsed[i].second.kind, entries[i].second.kind) << text;
  }
}

}  // namespace

class FrontMatterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontMatterFuzz, SeedsParseAndMutantsAlwaysDecide) {
  for (const auto& seed : seeds()) {
    ASSERT_TRUE(md::parse_content(seed).has_value()) << seed;
  }
  pdcu::Rng rng(GetParam());
  for (int n = 0; n < 400; ++n) {
    const std::string& seed = seeds()[rng.below(seeds().size())];
    expect_decided(mutate(rng, seed));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontMatterFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FrontMatterFuzz, PathologicalShapesTerminate) {
  std::vector<std::string> inputs = {
      "---",
      "---\n",
      "---\n---",
      "---\nk: " + std::string(5000, '[') + "\n---\n",
      "---\nk: [" + std::string(5000, ',') + "]\n---\n",
      "---\nk: \"" + std::string(5000, '\\') + "\n---\n",
      "---\n" + std::string(2000, ':') + "\n---\n",
  };
  std::string continued = "---\nk: [\"a\", \\\n";
  for (int i = 0; i < 2000; ++i) continued += "\"x\", \\\n";
  inputs.push_back(continued + "\"z\"]\n---\n");
  inputs.push_back(continued);  // ends inside a continuation
  for (const auto& input : inputs) expect_decided(input);
}
