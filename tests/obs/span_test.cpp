// Unit tests for the span registry: named histograms, ScopedSpan RAII,
// concurrent recording, and lint-clean /metrics rendering.
#include "pdcu/obs/span.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pdcu/obs/lint.hpp"
#include "pdcu/support/strings.hpp"

namespace obs = pdcu::obs;
namespace strs = pdcu::strings;

TEST(SpanRegistry, RecordsFindsAndListsSpans) {
  obs::SpanRegistry spans;
  EXPECT_EQ(spans.find("site.parse"), nullptr);
  spans.record("site.parse", 100);
  spans.record("site.parse", 300);
  spans.record("site.render", 50);

  const obs::Histogram* parse = spans.find("site.parse");
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(parse->count(), 2u);
  EXPECT_EQ(parse->sum(), 400u);

  const auto names = spans.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "site.parse");
  EXPECT_EQ(names[1], "site.render");
}

TEST(SpanRegistry, HistogramAddressesAreStableAcrossGrowth) {
  obs::SpanRegistry spans;
  spans.record("a", 1);
  const obs::Histogram* a = spans.find("a");
  for (int i = 0; i < 100; ++i) {
    spans.record("span." + std::to_string(i), 1);
  }
  EXPECT_EQ(spans.find("a"), a);
  EXPECT_EQ(a->count(), 1u);
}

TEST(SpanRegistry, ScopedSpanRecordsOnceAndNullRegistryIsNoOp) {
  obs::SpanRegistry spans;
  {
    obs::ScopedSpan timed(&spans, "block");
  }
  const obs::Histogram* block = spans.find("block");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->count(), 1u);
  {
    obs::ScopedSpan untimed(nullptr, "block");  // must not crash
  }
  EXPECT_EQ(block->count(), 1u);
}

TEST(SpanRegistry, SummaryNamesEverySpanWithPercentiles) {
  obs::SpanRegistry spans;
  for (int i = 1; i <= 100; ++i) {
    spans.record("site.render", static_cast<std::uint64_t>(i * 10));
  }
  const std::string summary = spans.summary();
  EXPECT_TRUE(strs::contains(summary, "site.render:"));
  EXPECT_TRUE(strs::contains(summary, "count=100"));
  EXPECT_TRUE(strs::contains(summary, "p50="));
  EXPECT_TRUE(strs::contains(summary, "p95="));
  EXPECT_TRUE(strs::contains(summary, "p99="));
  EXPECT_TRUE(strs::contains(summary, "mean="));
  EXPECT_TRUE(obs::SpanRegistry{}.summary().empty());
}

TEST(SpanRegistry, RenderTextIsPromtoolClean) {
  obs::SpanRegistry spans;
  spans.record("site.parse", 120);
  spans.record("search.build", 4500);
  const std::string text = spans.render_text();
  EXPECT_TRUE(strs::contains(text, "# TYPE pdcu_span_duration_us histogram"));
  EXPECT_TRUE(strs::contains(
      text, "pdcu_span_duration_us_bucket{span=\"site.parse\",le=\"+Inf\"} 1"));
  EXPECT_TRUE(strs::contains(
      text, "pdcu_span_duration_us_count{span=\"search.build\"} 1"));
  const auto problems = obs::lint_exposition(text);
  EXPECT_TRUE(problems.empty()) << strs::join(problems, "\n");
  EXPECT_TRUE(obs::SpanRegistry{}.render_text().empty());
}

TEST(SpanRegistry, ConcurrentRecordsAcrossNewAndExistingSpans) {
  obs::SpanRegistry spans;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spans, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Every thread hammers one shared span and also creates its own,
        // exercising the shared-lock fast path and the exclusive-lock
        // creation path together.
        spans.record("shared", static_cast<std::uint64_t>(i));
        spans.record("thread." + std::to_string(t),
                     static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const obs::Histogram* shared = spans.find("shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const obs::Histogram* own = spans.find("thread." + std::to_string(t));
    ASSERT_NE(own, nullptr);
    EXPECT_EQ(own->count(), kPerThread);
  }
}
