// LogLinearHistogram: exact buckets below 2^kSubBits, bounded relative
// error above, monotone bucket bounds, and quantiles by rank.
#include "base/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace pp {
namespace {

TEST(LogLinearHistogram, SmallValuesAreExact) {
  for (std::uint32_t v = 0; v < LogLinearHistogram::kSub; ++v) {
    EXPECT_EQ(LogLinearHistogram::lower_bound(LogLinearHistogram::index(v)), v);
  }
}

TEST(LogLinearHistogram, BucketsAreMonotoneAndWithinOneSixteenth) {
  std::size_t last = 0;
  for (std::uint64_t v = 1; v <= 0xffffffffULL; v = v * 3 / 2 + 1) {
    const auto x = static_cast<std::uint32_t>(v);
    const std::size_t i = LogLinearHistogram::index(x);
    ASSERT_LT(i, LogLinearHistogram::kBuckets);
    EXPECT_GE(i, last) << x;
    last = i;
    const std::uint32_t lo = LogLinearHistogram::lower_bound(i);
    EXPECT_LE(lo, x);
    EXPECT_LE(x - lo, x / LogLinearHistogram::kSub) << x;
  }
  EXPECT_EQ(LogLinearHistogram::index(0xffffffffU), LogLinearHistogram::kBuckets - 1);
}

TEST(LogLinearHistogram, QuantilesFollowRank) {
  LogLinearHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0U);
  for (std::uint32_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10U);
  EXPECT_EQ(h.quantile(0.0), 1U);
  EXPECT_EQ(h.quantile(0.5), 6U);  // rank round(0.5 * 9) = 5 -> sixth sample
  EXPECT_EQ(h.quantile(1.0), 10U);
  EXPECT_EQ(h.max(), 10U);
}

}  // namespace
}  // namespace pp
