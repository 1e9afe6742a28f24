#include "pdcu/taxonomy/term_index.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "pdcu/core/repository.hpp"

namespace tax = pdcu::tax;

namespace {

tax::TermIndex make_index() {
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  index.add_page({"alpha", "Alpha"},
                 {{"courses", {"CS1", "CS2"}}, {"senses", {"visual"}}});
  index.add_page({"beta", "Beta"},
                 {{"courses", {"CS2"}}, {"senses", {"visual", "touch"}}});
  index.add_page({"gamma", "Gamma"}, {{"courses", {"CS1", "CS2", "DSA"}}});
  return index;
}

}  // namespace

TEST(TermIndex, GroupsPagesByTerm) {
  auto index = make_index();
  EXPECT_EQ(index.count("courses", "CS1"), 2u);
  EXPECT_EQ(index.count("courses", "CS2"), 3u);
  EXPECT_EQ(index.count("courses", "DSA"), 1u);
  EXPECT_EQ(index.count("senses", "touch"), 1u);
}

TEST(TermIndex, PagesKeepInsertionOrder) {
  auto index = make_index();
  auto pages = index.pages("courses", "CS2");
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0].slug, "alpha");
  EXPECT_EQ(pages[1].slug, "beta");
  EXPECT_EQ(pages[2].slug, "gamma");
}

TEST(TermIndex, TermsAreSorted) {
  auto index = make_index();
  auto terms = index.terms("courses");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "CS1");
  EXPECT_EQ(terms[1], "CS2");
  EXPECT_EQ(terms[2], "DSA");
}

TEST(TermIndex, UnknownTaxonomyKeysAreIgnored) {
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  index.add_page({"x", "X"}, {{"title", {"not-a-taxonomy"}}});
  EXPECT_TRUE(index.terms("title").empty());
  EXPECT_EQ(index.page_count(), 1u);
}

TEST(TermIndex, DuplicateTermsOnOnePageIndexOnce) {
  tax::TermIndex index(tax::TaxonomyConfig::pdcunplugged());
  index.add_page({"x", "X"}, {{"courses", {"CS1", "CS1"}}});
  EXPECT_EQ(index.count("courses", "CS1"), 1u);
}

TEST(TermIndex, UnknownTermIsEmpty) {
  auto index = make_index();
  EXPECT_TRUE(index.pages("courses", "PhD").empty());
  EXPECT_EQ(index.count("nope", "CS1"), 0u);
}

TEST(TermIndex, PagesWithAnyDeduplicates) {
  auto index = make_index();
  auto pages = index.pages_with_any("courses", {"CS1", "CS2"});
  EXPECT_EQ(pages.size(), 3u);  // alpha, beta, gamma without duplicates
}

TEST(TermIndex, PagesWithAllIntersects) {
  auto index = make_index();
  auto pages = index.pages_with_all("courses", {"CS1", "CS2"});
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].slug, "alpha");
  EXPECT_EQ(pages[1].slug, "gamma");
  EXPECT_TRUE(index.pages_with_all("courses", {}).empty());
}

TEST(TermIndex, MembershipFingerprintMovesExactlyWithPages) {
  const auto index = make_index();
  // Same pages, same order, built again: the same fingerprint.
  EXPECT_EQ(index.membership_fingerprint("courses", "CS2"),
            make_index().membership_fingerprint("courses", "CS2"));
  EXPECT_NE(index.membership_fingerprint("courses", "CS1"),
            index.membership_fingerprint("courses", "CS2"));
  EXPECT_EQ(index.membership_fingerprint("courses", "nope"), 0u);

  // A retitled page, a reordering and a duplicate page each move it or
  // keep it exactly as pages() does.
  tax::TermIndex retitled(tax::TaxonomyConfig::pdcunplugged());
  retitled.add_page({"alpha", "Alpha"}, {{"courses", {"CS1"}}});
  retitled.add_page({"gamma", "Gamma (2nd ed.)"}, {{"courses", {"CS1"}}});
  EXPECT_NE(retitled.membership_fingerprint("courses", "CS1"),
            index.membership_fingerprint("courses", "CS1"));
  tax::TermIndex reordered(tax::TaxonomyConfig::pdcunplugged());
  reordered.add_page({"gamma", "Gamma"}, {{"courses", {"CS1"}}});
  reordered.add_page({"alpha", "Alpha"}, {{"courses", {"CS1"}}});
  EXPECT_NE(reordered.membership_fingerprint("courses", "CS1"),
            index.membership_fingerprint("courses", "CS1"));
  tax::TermIndex same(tax::TaxonomyConfig::pdcunplugged());
  same.add_page({"alpha", "Alpha"}, {{"courses", {"CS1", "CS1"}}});
  same.add_page({"gamma", "Gamma"}, {{"courses", {"CS1"}}});
  same.add_page({"alpha", "Alpha"}, {{"courses", {"CS1"}}});
  EXPECT_EQ(same.pages("courses", "CS1"), index.pages("courses", "CS1"));
  EXPECT_EQ(same.membership_fingerprint("courses", "CS1"),
            index.membership_fingerprint("courses", "CS1"));
}

TEST(TermIndexResolve, ExactAndCaseInsensitiveMatches) {
  const auto& index = pdcu::core::Repository::builtin().index();
  EXPECT_EQ(index.resolve_term("cs2013", "PD_ParallelAlgorithms"),
            std::optional<std::string>("PD_ParallelAlgorithms"));
  EXPECT_EQ(index.resolve_term("cs2013", "pd_parallelalgorithms"),
            std::optional<std::string>("PD_ParallelAlgorithms"));
  EXPECT_EQ(index.resolve_term("courses", "cs2"),
            std::optional<std::string>("CS2"));
}

TEST(TermIndexResolve, HyphenAndUnderscoreAreInterchangeable) {
  const auto& index = pdcu::core::Repository::builtin().index();
  EXPECT_EQ(index.resolve_term("cs2013", "PD-ParallelAlgorithms"),
            std::optional<std::string>("PD_ParallelAlgorithms"));
}

TEST(TermIndexResolve, UniquePrefixResolvesAmbiguousDoesNot) {
  const auto& index = pdcu::core::Repository::builtin().index();
  // "PD-Communication" is a strict prefix of exactly one cs2013 term.
  EXPECT_EQ(index.resolve_term("cs2013", "PD-Communication"),
            std::optional<std::string>("PD_CommunicationCoordination"));
  // "PD_Parallel" prefixes several terms -> ambiguous.
  EXPECT_EQ(index.resolve_term("cs2013", "PD_Parallel"), std::nullopt);
}

TEST(TermIndexResolve, UnknownInputsResolveToNothing) {
  const auto& index = pdcu::core::Repository::builtin().index();
  EXPECT_EQ(index.resolve_term("cs2013", "NoSuchTerm"), std::nullopt);
  EXPECT_EQ(index.resolve_term("notataxonomy", "CS2"), std::nullopt);
  EXPECT_EQ(index.resolve_term("cs2013", ""), std::nullopt);
}

TEST(TermIndex, FindPagesReturnsPointerWithoutCopying) {
  auto index = make_index();
  const auto* pages = index.find_pages("courses", "CS1");
  ASSERT_NE(pages, nullptr);
  EXPECT_EQ(pages->size(), 2u);
  EXPECT_EQ((*pages)[0].slug, "alpha");
  EXPECT_EQ((*pages)[1].slug, "gamma");
  // Two lookups see the same underlying storage, not clones.
  EXPECT_EQ(pages, index.find_pages("courses", "CS1"));

  EXPECT_EQ(index.find_pages("courses", "NoSuchTerm"), nullptr);
  EXPECT_EQ(index.find_pages("notataxonomy", "CS1"), nullptr);
}
