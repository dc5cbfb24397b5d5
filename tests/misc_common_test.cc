#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "common/timestamp.h"

namespace mlfs {
namespace {

TEST(TimestampTest, UnitConversions) {
  EXPECT_EQ(Seconds(1), 1000000);
  EXPECT_EQ(Minutes(1), 60 * Seconds(1));
  EXPECT_EQ(Hours(1), 60 * Minutes(1));
  EXPECT_EQ(Days(1), 24 * Hours(1));
}

TEST(TimestampTest, Format) {
  EXPECT_EQ(FormatTimestamp(0), "d0 00:00:00.000");
  EXPECT_EQ(FormatTimestamp(Days(2) + Hours(3) + Minutes(4) + Seconds(5) +
                            6 * kMicrosPerMilli),
            "d2 03:04:05.006");
  EXPECT_EQ(FormatTimestamp(kMinTimestamp), "-inf");
  EXPECT_EQ(FormatTimestamp(kMaxTimestamp), "+inf");
}

TEST(SimClockTest, MonotoneAdvance) {
  SimClock clock(Hours(1));
  EXPECT_EQ(clock.now(), Hours(1));
  clock.Advance(Minutes(30));
  EXPECT_EQ(clock.now(), Hours(1) + Minutes(30));
  clock.AdvanceTo(Hours(1));  // In the past: no-op.
  EXPECT_EQ(clock.now(), Hours(1) + Minutes(30));
  clock.AdvanceTo(Hours(2));
  EXPECT_EQ(clock.now(), Hours(2));
  clock.Advance(-5);  // Negative: no-op.
  EXPECT_EQ(clock.now(), Hours(2));
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50, 3);
  EXPECT_NEAR(h.Percentile(95), 95, 5);
  EXPECT_NEAR(h.Percentile(100), 100, 0.01);
}

TEST(HistogramTest, PercentileWithinRelativeError) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.Record(123.0);
  // All mass at one value: every percentile must be near it.
  EXPECT_NEAR(h.Percentile(1), 123.0, 123.0 * 0.05);
  EXPECT_NEAR(h.Percentile(99), 123.0, 123.0 * 0.05);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Record(1.0);
  a.Record(2.0);
  b.Record(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 100.0);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_NEAR(a.sum(), 103.0, 1e-9);
}

TEST(HistogramTest, MergeWithEmptyOnEitherSide) {
  Histogram a, empty;
  a.Record(7.0);
  a.Merge(empty);  // Merging an empty histogram changes nothing.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7.0);
  EXPECT_EQ(a.max(), 7.0);
  Histogram into_empty;
  into_empty.Merge(a);  // Merging into empty copies min/max/mass.
  EXPECT_EQ(into_empty.count(), 1u);
  EXPECT_EQ(into_empty.min(), 7.0);
  EXPECT_EQ(into_empty.max(), 7.0);
}

// The striped-metrics use case: recording N samples across K histograms
// then merging must be distribution-equivalent to recording all N into one.
TEST(HistogramTest, MergedStripesMatchSingleHistogram) {
  Histogram single;
  Histogram stripes[4];
  for (int i = 1; i <= 1000; ++i) {
    single.Record(static_cast<double>(i));
    stripes[i % 4].Record(static_cast<double>(i));
  }
  Histogram merged;
  for (const Histogram& s : stripes) merged.Merge(s);
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.min(), single.min());
  EXPECT_EQ(merged.max(), single.max());
  EXPECT_NEAR(merged.mean(), single.mean(), 1e-9);
  for (double p : {10.0, 50.0, 95.0, 99.0}) {
    EXPECT_NEAR(merged.Percentile(p), single.Percentile(p), 1e-9) << p;
  }
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(StringUtilTest, JoinLowerStrip) {
  EXPECT_EQ(StrJoin({"x", "y"}, "::"), "x::y");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(ToLower("AbC_9"), "abc_9");
  EXPECT_EQ(StripWhitespace("  hi\t\n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("feature_x", "feature"));
  EXPECT_FALSE(StartsWith("fe", "feature"));
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (size_t threads : {1, 2, 4}) {
    for (size_t n : {0, 1, 3, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(threads, n, [&hits](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, OneThreadRunsOnCaller) {
  std::vector<std::thread::id> ran_on(100);
  ParallelFor(1, ran_on.size(),
              [&ran_on](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ParallelForTest, StartsNoMoreThreadsThanChunks) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(8, 3, [&](size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  // With more than one thread the caller only waits.
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

}  // namespace
}  // namespace mlfs
