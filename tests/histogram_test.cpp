// Histogram merge edge cases: mismatched bucket layouts, counter
// saturation near uint64 max, merge-with-empty, and snapshot assign.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "obs/histogram.h"

namespace magma::obs {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

Histogram small_hist() { return Histogram({1.0, 10.0, 100.0}); }

TEST(HistogramMerge, MismatchedLayoutIsRejectedUntouched) {
  Histogram a({1.0, 10.0, 100.0});
  Histogram b({1.0, 10.0});  // fewer buckets
  a.observe(5.0);
  b.observe(5.0);
  ASSERT_FALSE(a.merge(b));
  // The refusing side is left exactly as it was.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.counts()[1], 1u);

  Histogram c({1.0, 20.0, 100.0});  // same size, different bound
  c.observe(5.0);
  ASSERT_FALSE(a.merge(c));
  EXPECT_EQ(a.count(), 1u);
}

TEST(HistogramMerge, EmptyIntoPopulatedAndBack) {
  Histogram a = small_hist();
  Histogram empty = small_hist();
  a.observe(0.5);
  a.observe(50.0);

  // Populated += empty: no change.
  ASSERT_TRUE(a.merge(empty));
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.sum(), 50.5);

  // Empty += populated: becomes an exact copy.
  ASSERT_TRUE(empty.merge(a));
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.sum(), 50.5);
  EXPECT_EQ(empty.counts(), a.counts());

  // Empty += empty stays empty (and quantile stays well-defined).
  Histogram e1 = small_hist();
  Histogram e2 = small_hist();
  ASSERT_TRUE(e1.merge(e2));
  EXPECT_EQ(e1.count(), 0u);
  EXPECT_DOUBLE_EQ(e1.quantile(0.99), 0.0);
}

TEST(HistogramMerge, CountsSaturateInsteadOfWrapping) {
  Histogram a = small_hist();
  Histogram b = small_hist();
  // Force both sides' first bucket near the ceiling via assign (the decode
  // path a hostile or long-lived peer would arrive through).
  ASSERT_TRUE(a.assign({1.0, 10.0, 100.0}, {kMax - 1, 0, 0, 0}, 1.0));
  ASSERT_TRUE(b.assign({1.0, 10.0, 100.0}, {5, 0, 0, 0}, 1.0));
  ASSERT_TRUE(a.merge(b));
  // A wrapped counter would report a near-empty bucket; saturation pins it
  // at the ceiling instead.
  EXPECT_EQ(a.counts()[0], kMax);
  EXPECT_EQ(a.count(), kMax);

  // Saturated + more stays saturated.
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.counts()[0], kMax);
}

TEST(HistogramObserve, TotalCountSaturates) {
  Histogram a = small_hist();
  ASSERT_TRUE(a.assign({1.0, 10.0, 100.0}, {kMax, 0, 0, 0}, 0.0));
  a.observe(0.5);
  EXPECT_EQ(a.counts()[0], kMax);
  EXPECT_EQ(a.count(), kMax);
}

TEST(HistogramAssign, ResetsExemplarsAndRejectsBadLayout) {
  Histogram h = small_hist();
  h.observe(0.5);
  ASSERT_TRUE(h.assign({1.0, 10.0, 100.0}, {3, 0, 0, 0}, 1.5));
  // counts must be bounds.size() + 1.
  EXPECT_FALSE(h.assign({1.0, 10.0}, {1, 2}, 0.0));
  // The failed assign leaves the previous contents in place.
  EXPECT_EQ(h.counts()[0], 3u);
}

}  // namespace
}  // namespace magma::obs
