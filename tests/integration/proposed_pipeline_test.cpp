// Integration: the proposed gap-filling activities flow through the whole
// content pipeline — committed markdown files under data/proposed load
// back into the exact in-memory activities, merge with the snapshot into
// site pages (activity page + taxonomy term pages), and surface in the
// search index.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/extensions/impact.hpp"
#include "pdcu/extensions/proposed.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/strings.hpp"

#ifndef PDCU_DATA_DIR
#define PDCU_DATA_DIR "data"
#endif

namespace core = pdcu::core;
namespace ext = pdcu::ext;

namespace {

core::Repository load_proposed_from_disk() {
  auto loaded = core::Repository::load(PDCU_DATA_DIR "/proposed");
  EXPECT_TRUE(loaded.has_value())
      << (loaded ? "" : loaded.error().message);
  return loaded ? std::move(loaded).value()
                : core::Repository(std::vector<core::Activity>{});
}

}  // namespace

TEST(ProposedPipeline, CommittedFilesMatchTheInMemoryProposals) {
  auto repo = load_proposed_from_disk();
  const auto& memory = ext::proposed_activities();
  ASSERT_EQ(repo.activities().size(), memory.size());
  for (const auto& activity : memory) {
    const auto* from_disk = repo.find(activity.slug);
    ASSERT_NE(from_disk, nullptr) << activity.slug;
    EXPECT_EQ(from_disk->title, activity.title);
    EXPECT_EQ(from_disk->simulation, activity.simulation);
    EXPECT_EQ(from_disk->cs2013details, activity.cs2013details);
    EXPECT_EQ(from_disk->tcppdetails, activity.tcppdetails);
  }
}

TEST(ProposedPipeline, StencilActivityFileIsCommitted) {
  auto repo = load_proposed_from_disk();
  const auto* stencil = repo.find("parallelstencilgameoflife");
  ASSERT_NE(stencil, nullptr);
  EXPECT_EQ(stencil->simulation, "game_of_life");
  EXPECT_NE(std::find(stencil->cs2013details.begin(),
                      stencil->cs2013details.end(), "PCC_8"),
            stencil->cs2013details.end());
  EXPECT_NE(std::find(stencil->tcppdetails.begin(),
                      stencil->tcppdetails.end(), "K_SIMDNotation"),
            stencil->tcppdetails.end());
}

TEST(ProposedPipeline, ExtendedSiteHasStencilAndTermPages) {
  core::Repository extended(ext::extended_curation());
  auto site = pdcu::site::build_site(extended);
  bool activity_page = false;
  bool term_page = false;
  for (const auto& page : site.pages) {
    if (page.path == "activities/parallelstencilgameoflife/index.html") {
      activity_page = true;
      EXPECT_TRUE(pdcu::strings::contains(page.html(), "SIMD"));
      EXPECT_TRUE(pdcu::strings::contains(page.html(), "halo"));
    }
    if (page.path.find("simdnotation") != std::string::npos &&
        pdcu::strings::contains(page.html(), "parallelstencilgameoflife")) {
      term_page = true;
    }
  }
  EXPECT_TRUE(activity_page);
  EXPECT_TRUE(term_page);
}

TEST(ProposedPipeline, SearchIndexFindsTheStencilActivity) {
  core::Repository extended(ext::extended_curation());
  auto index = pdcu::search::SearchIndex::build(extended);
  for (const char* query_text : {"halo exchange", "game of life torus"}) {
    const auto hits =
        index.search(pdcu::search::parse_query(query_text), nullptr, 10);
    const bool found = std::any_of(
        hits.begin(), hits.end(), [](const auto& hit) {
          return hit.slug == "parallelstencilgameoflife";
        });
    EXPECT_TRUE(found) << query_text;
  }
}
