#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace ddpkit {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("reducer.test_events");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same metric.
  EXPECT_EQ(registry.counter("reducer.test_events").value(), 42u);
  EXPECT_EQ(registry.NumMetrics(), 1u);
}

TEST(MetricsTest, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("pg.queue_depth");
  g.Set(3.0);
  g.Set(-1.5);
  EXPECT_DOUBLE_EQ(registry.gauge("pg.queue_depth").value(), -1.5);
}

TEST(MetricsTest, HistogramQuantilesAreExact) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("ddp.latency");
  // 1..100 in scrambled order: quantiles must not depend on insert order.
  for (int i = 0; i < 100; ++i) h.Record(((i * 37) % 100) + 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_NEAR(h.p50(), 50.5, 1.0);
  EXPECT_NEAR(h.p95(), 95.0, 1.5);
  EXPECT_NEAR(h.p99(), 99.0, 1.5);
  // Recording after a quantile query re-sorts correctly.
  h.Record(1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(MetricsTest, EmptyHistogramIsZeroNotNan) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(MetricsTest, ToJsonRendersAllSectionsSorted) {
  MetricsRegistry registry;
  registry.counter("b.count").Increment(2);
  registry.counter("a.count").Increment(1);
  registry.gauge("z.gauge").Set(0.5);
  registry.histogram("h.samples").Record(1.0);
  registry.histogram("h.samples").Record(3.0);

  const std::string json = json::Serialize(registry.ToJson());
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos) << json;
  // std::map ordering: a.count precedes b.count.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
}

TEST(MetricsTest, HostileMetricNamesAreEscapedInJson) {
  MetricsRegistry registry;
  registry.counter("weird\"name\nwith\tcontrols").Increment();
  const std::string json = json::Serialize(registry.ToJson());
  EXPECT_NE(json.find("weird\\\"name\\nwith\\tcontrols"), std::string::npos)
      << json;
  // The raw control characters must not appear.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(MetricsTest, ConcurrentUpdatesFromRankThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("shared.count").Increment();
        registry.histogram("shared.hist").Record(t);
        registry.gauge("rank" + std::to_string(t)).Set(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.counter("shared.count").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.histogram("shared.hist").count(),
            static_cast<size_t>(kThreads) * kPerThread);
}

// Regression: rendering a histogram via seven individually-locked accessors
// could interleave with a concurrent Record, producing a summary whose
// fields belong to different instants (count from before the record, sum
// from after). Snapshot() takes the lock once, so count/sum/min/max/
// quantiles are always mutually consistent: recording only 1.0s, a
// snapshot with sum != count would be torn.
TEST(MetricsTest, SnapshotIsNeverTorn) {
  // Both sides are bounded: a snapshot sorts the samples it copies, so an
  // unbounded writer would make the reader loop quadratic (and blow the
  // per-test timeout under TSan's slowdown). The reader stops once the
  // writer is done — every snapshot it takes races a live Record.
  constexpr int kRecords = 5'000;
  constexpr int kMaxSnapshots = 20'000;
  Histogram h;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kRecords; ++i) h.Record(1.0);
    done.store(true);
  });
  for (int i = 0; i < kMaxSnapshots && !done.load(); ++i) {
    const Histogram::Summary s = h.Snapshot();
    ASSERT_DOUBLE_EQ(s.sum, static_cast<double>(s.count));
    if (s.count > 0) {
      ASSERT_DOUBLE_EQ(s.min, 1.0);
      ASSERT_DOUBLE_EQ(s.max, 1.0);
      ASSERT_DOUBLE_EQ(s.p50, 1.0);
    }
  }
  writer.join();
  const Histogram::Summary s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<size_t>(kRecords));
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(kRecords));
}

}  // namespace
}  // namespace ddpkit
