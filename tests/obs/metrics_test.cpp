#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rasc::obs {
namespace {

TEST(Counter, IncrementsByOneAndByN) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, HoldsLastValue) {
  Gauge g;
  g.set(3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 1.0, 2.0}), std::invalid_argument);
}

TEST(Histogram, ExponentialBounds) {
  const auto bounds = Histogram::exponential_bounds(1.0, 10.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 10.0);
  EXPECT_DOUBLE_EQ(bounds[2], 100.0);
}

TEST(Histogram, EmptyReturnsZeroEverywhere) {
  Histogram h({10.0, 20.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleSampleInterpolatesToItself) {
  // Interpolation inside the (10, 20] bucket lands mid-bucket, but the
  // clamp to [min, max] pins it to the one observed sample.
  Histogram h({10.0, 20.0, 30.0});
  h.record(15.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(1), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 15.0);
}

TEST(Histogram, ValuesOnBucketEdgesCountIntoLowerBucket) {
  // A sample exactly on a bound belongs to that bound's bucket
  // (lower_bound semantics: bucket i covers (bounds[i-1], bounds[i]]).
  Histogram h({10.0, 20.0, 30.0});
  h.record(10.0);
  h.record(20.0);
  h.record(30.0);
  h.record(40.0);  // overflow bucket
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);

  // rank p50 = 2 of 4 lands exactly on the upper edge of bucket 1.
  EXPECT_DOUBLE_EQ(h.percentile(50), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(25), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 40.0);
  // p99: rank 3.96 in the overflow bucket, whose upper edge is the
  // observed max (40): 30 + 0.96 * (40 - 30).
  EXPECT_NEAR(h.percentile(99), 39.6, 1e-9);
}

TEST(Histogram, OverflowBucketUsesObservedMaxAsUpperEdge) {
  Histogram h({10.0, 20.0, 30.0});
  h.record(100.0);
  h.record(200.0);
  // rank 1 of 2 at pos 0.5 in (30, 200]: 30 + 0.5*170 = 115.
  EXPECT_DOUBLE_EQ(h.percentile(50), 115.0);
  EXPECT_DOUBLE_EQ(h.max(), 200.0);
}

TEST(Histogram, PercentileClampedToObservedRange) {
  Histogram h({10.0});
  h.record(8.0);
  h.record(8.0);
  // Interpolation in [0, 10] would give 5; the clamp pins it to min.
  EXPECT_DOUBLE_EQ(h.percentile(50), 8.0);
}

TEST(Histogram, MergeFoldsBucketsAndExtremes) {
  Histogram a({10.0, 20.0, 30.0});
  Histogram b({10.0, 20.0, 30.0});
  a.record(5.0);
  a.record(15.0);
  b.record(25.0);
  b.record(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_DOUBLE_EQ(a.sum(), 145.0);
  EXPECT_EQ(a.bucket_counts()[3], 1u);

  Histogram other({1.0, 2.0});
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(Histogram, MergeIntoEmptyAdoptsExtremes) {
  Histogram a({10.0});
  Histogram b({10.0});
  b.record(3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(MetricsRegistry, CreatesOnDemandAndFinds) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.find_counter("c"), nullptr);

  reg.counter("c").inc(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0, 2.0}).record(1.5);

  EXPECT_FALSE(reg.empty());
  ASSERT_NE(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_counter("c")->value(), 3u);
  ASSERT_NE(reg.find_gauge("g"), nullptr);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);

  // Bounds are fixed by the first accessor; later calls reuse the metric.
  reg.histogram("h").record(1.7);
  EXPECT_EQ(reg.find_histogram("h")->count(), 2u);
  EXPECT_EQ(reg.find_histogram("h")->bounds().size(), 2u);
}

TEST(MetricsRegistry, DefaultHistogramUsesLatencyBounds) {
  MetricsRegistry reg;
  reg.histogram("lat").record(0.5);
  EXPECT_EQ(reg.find_histogram("lat")->bounds(),
            Histogram::default_latency_bounds_ms());
}

TEST(MetricsRegistry, JsonContainsAllMetricKinds) {
  MetricsRegistry reg;
  reg.counter("hits").inc(7);
  reg.gauge("ratio").set(0.25);
  reg.histogram("lat_ms", {1.0, 10.0}).record(2.0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"hits\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"lat_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
}

}  // namespace
}  // namespace rasc::obs
