// Tests for the ode::obs observability subsystem: the metrics
// registry (counters, gauges, log-bucketed histograms, owned
// instruments, exports), the tracing spans / Chrome trace export, and
// the `obs::Ring` every bounded observability tail is built on.
//
// Metric names use an "obs_test." prefix: the registry is a leaked
// process-wide singleton shared with every other test in this binary,
// so tests assert on names only they touch (plus deltas elsewhere).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/ring.h"
#include "common/trace.h"

namespace ode::obs {
namespace {

TEST(MetricsTest, CounterBasics) {
  Registry& registry = Registry::Global();
  Counter* c = registry.counter("obs_test.counter.basics");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name, same instrument.
  EXPECT_EQ(registry.counter("obs_test.counter.basics"), c);
}

TEST(MetricsTest, GaugeGoesUpAndDown) {
  Gauge* g = Registry::Global().gauge("obs_test.gauge.basics");
  g->Set(10);
  g->Add(5);
  g->Sub(7);
  EXPECT_EQ(g->value(), 8);
}

TEST(MetricsTest, CountersUnderEightThreads) {
  Counter* c = Registry::Global().counter("obs_test.counter.threads");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  Histogram* h = Registry::Global().histogram("obs_test.hist.buckets");
  // Bucket i holds values of bit width i: 1 -> bucket 1, 2..3 -> 2, ...
  h->Record(0);
  h->Record(1);
  h->Record(2);
  h->Record(3);
  h->Record(1000);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 1006u);
  EXPECT_EQ(h->max(), 1000u);
  EXPECT_EQ(h->bucket(0), 1u);  // value 0
  EXPECT_EQ(h->bucket(1), 1u);  // value 1
  EXPECT_EQ(h->bucket(2), 2u);  // values 2, 3
  EXPECT_EQ(h->bucket(10), 1u);  // 1000 has bit width 10
  // p50 lands in bucket 2 (upper bound 3); p99 in the 1000 bucket.
  EXPECT_EQ(h->ApproxQuantile(0.5), 3u);
  EXPECT_EQ(h->ApproxQuantile(0.99), 1023u);
}

TEST(MetricsTest, HistogramUnderEightThreads) {
  Histogram* h = Registry::Global().histogram("obs_test.hist.threads");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<uint64_t>(t) * 1000 + i % 7);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) bucket_total += h->bucket(i);
  EXPECT_EQ(bucket_total, h->count());
}

TEST(MetricsTest, OwnedInstrumentsAggregateWithShared) {
  Registry& registry = Registry::Global();
  const std::string name = "obs_test.owned.aggregate";
  registry.counter(name)->Add(5);
  auto owned_a = registry.NewOwnedCounter(name);
  auto owned_b = registry.NewOwnedCounter(name);
  owned_a->Add(10);
  owned_b->Add(100);
  // Owned instances stay private...
  EXPECT_EQ(owned_a->value(), 10u);
  EXPECT_EQ(owned_b->value(), 100u);
  // ...while the export aggregates shared + all live owned.
  int64_t exported = -1;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == name) exported = s.value;
  }
  EXPECT_EQ(exported, 115);
}

TEST(MetricsTest, DestroyedOwnedInstrumentRetiresIntoExport) {
  Registry& registry = Registry::Global();
  const std::string name = "obs_test.owned.retired";
  {
    auto owned = registry.NewOwnedCounter(name);
    owned->Add(7);
  }  // owner gone; history must survive
  auto hist_name = std::string("obs_test.owned.retired_hist");
  {
    auto owned = registry.NewOwnedHistogram(hist_name);
    owned->Record(100);
    owned->Record(200);
  }
  int64_t counter_value = -1;
  uint64_t hist_count = 0;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == name) counter_value = s.value;
    if (s.name == hist_name) hist_count = s.count;
  }
  EXPECT_EQ(counter_value, 7);
  EXPECT_EQ(hist_count, 2u);
}

TEST(MetricsTest, PrometheusRenderContainsTypedSeries) {
  Registry& registry = Registry::Global();
  registry.counter("obs_test.prom.counter")->Add(3);
  registry.gauge("obs_test.prom.gauge")->Set(-2);
  registry.histogram("obs_test.prom.hist")->Record(100);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE obs_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_gauge -2"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count"), std::string::npos);
}

TEST(MetricsTest, JsonRenderIsWellFormed) {
  Registry& registry = Registry::Global();
  registry.counter("obs_test.json.counter")->Add(1);
  registry.histogram("obs_test.json.hist")->Record(50);
  std::string json = registry.RenderJson();
  // Structural sanity: brace balance and the three top-level sections.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.counter\":"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json.hist\":{\"count\":"),
            std::string::npos);
}

TEST(MetricsTest, TextRenderGroupsByKind) {
  Registry& registry = Registry::Global();
  registry.counter("obs_test.text.counter")->Add(2);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("-- counters --"), std::string::npos);
  EXPECT_NE(text.find("obs_test.text.counter = 2"), std::string::npos);
}

TEST(MetricsTest, ScopedLatencyTimerRecords) {
  Registry& registry = Registry::Global();
  Histogram* h = registry.histogram("obs_test.timer.hist");
  Counter* c = registry.counter("obs_test.timer.count");
  { ScopedLatencyTimer timer(h, c); }
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(c->value(), 1u);
}

/// Restores the global tracing state (other tests expect it off).
class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracing::Clear();
    Tracing::Enable();
  }
  void TearDown() override {
    Tracing::Disable();
    Tracing::Clear();
  }
};

TEST_F(TracingTest, SpansNestWithDepth) {
  {
    ODE_TRACE_SPAN("obs_test.outer");
    {
      ODE_TRACE_SPAN("obs_test.inner");
    }
  }
  EXPECT_EQ(Tracing::CapturedCount(), 2u);
  std::string json = Tracing::ExportChromeJson();
  // The inner span closes first and carries depth 1; the outer depth 0.
  EXPECT_NE(json.find("\"name\":\"obs_test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs_test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":0"), std::string::npos);
}

TEST_F(TracingTest, DisabledSpansRecordNothing) {
  Tracing::Disable();
  {
    ODE_TRACE_SPAN("obs_test.disabled");
  }
  EXPECT_EQ(Tracing::CapturedCount(), 0u);
}

TEST_F(TracingTest, ChromeExportIsWellFormedJson) {
  {
    ODE_TRACE_SPAN("obs_test.export");
  }
  std::string json = Tracing::ExportChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  // Brace/bracket balance outside strings.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TracingTest, ConcurrentSpansFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ODE_TRACE_SPAN("obs_test.mt");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(Tracing::CapturedCount() + Tracing::DroppedCount(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST_F(TracingTest, ClearDropsRetainedEvents) {
  {
    ODE_TRACE_SPAN("obs_test.cleared");
  }
  ASSERT_GT(Tracing::CapturedCount(), 0u);
  Tracing::Clear();
  EXPECT_EQ(Tracing::CapturedCount(), 0u);
}

TEST_F(TracingTest, WrappedBufferSnapshotsNewestOldestFirst) {
  constexpr uint64_t kCapacity = 8192;  // per-thread trace buffer
  constexpr uint64_t kExtra = 10;
  for (uint64_t i = 1; i <= kCapacity + kExtra; ++i) {
    Tracing::Record("obs_test.wrap", /*start_ns=*/i, /*duration_ns=*/1,
                    /*depth=*/0, /*trace_id=*/1, /*span_id=*/i,
                    /*parent_id=*/0);
  }
  std::vector<uint64_t> starts;
  for (const TraceEvent& event : Tracing::SnapshotEvents()) {
    if (std::string_view(event.name) == "obs_test.wrap") {
      starts.push_back(event.start_ns);
    }
  }
  ASSERT_EQ(starts.size(), kCapacity);
  for (size_t i = 0; i < starts.size(); ++i) {
    ASSERT_EQ(starts[i], kExtra + 1 + i) << "at position " << i;
  }
  EXPECT_EQ(Tracing::DroppedCount(), kExtra);
}

// --- obs::Ring ---------------------------------------------------------

/// Two fields derived from one value, so a torn copy is detectable.
struct Tagged {
  uint64_t seq = 0;  // stamped by the ring on every read
  uint64_t value = 0;
  uint64_t check = 0;  // ~value
};

Tagged MakeTagged(uint64_t value) { return Tagged{0, value, ~value}; }

std::vector<uint64_t> Values(const Ring<Tagged>& ring) {
  std::vector<uint64_t> out;
  for (const Tagged& t : ring.Snapshot()) out.push_back(t.value);
  return out;
}

TEST(RingTest, KeepsExactlyItsCapacity) {
  EXPECT_EQ(Ring<Tagged>(5).capacity(), 5u);
  EXPECT_EQ(Ring<Tagged>(0).capacity(), 1u);
  Ring<Tagged> ring(5);
  EXPECT_TRUE(ring.Snapshot().empty());
  for (uint64_t v = 1; v <= 3; ++v) {
    EXPECT_EQ(ring.Push(MakeTagged(v)), RingPush::kStored);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(Values(ring), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(RingTest, WrapKeepsNewestOldestFirstAndCountsOverwrites) {
  Ring<Tagged> ring(5);
  for (uint64_t v = 1; v <= 5; ++v) {
    EXPECT_EQ(ring.Push(MakeTagged(v)), RingPush::kStored);
  }
  for (uint64_t v = 6; v <= 12; ++v) {
    EXPECT_EQ(ring.Push(MakeTagged(v)), RingPush::kOverwrote);
  }
  EXPECT_EQ(ring.appended(), 12u);
  EXPECT_EQ(ring.overwritten(), 7u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 5u);
  std::vector<Tagged> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].value, 8 + i);
    EXPECT_EQ(records[i].seq, 8 + i);  // the push number is stamped in
  }
  Tagged out;
  EXPECT_FALSE(ring.Read(7, &out));  // overwritten
  ASSERT_TRUE(ring.Read(9, &out));
  EXPECT_EQ(out.value, 9u);
  EXPECT_EQ(out.seq, 9u);
  EXPECT_FALSE(ring.Read(13, &out));  // not pushed yet
  EXPECT_FALSE(ring.Read(0, &out));
}

TEST(RingTest, VisitNewestWalksTheTailOldestFirst) {
  Ring<Tagged> ring(8);
  for (uint64_t v = 1; v <= 20; ++v) ring.Push(MakeTagged(v * 10));
  std::vector<uint64_t> seqs, values;
  ring.VisitNewest(3, [&](uint64_t seq, const Tagged& t) {
    seqs.push_back(seq);
    values.push_back(t.value);
  });
  EXPECT_EQ(seqs, (std::vector<uint64_t>{18, 19, 20}));
  EXPECT_EQ(values, (std::vector<uint64_t>{180, 190, 200}));
  // Asking for more than the ring holds visits only what it holds.
  size_t visited = 0;
  ring.VisitNewest(100, [&](uint64_t, const Tagged&) { ++visited; });
  EXPECT_EQ(visited, 8u);
}

TEST(RingTest, ClearForgetsRecordsAndRestartsNumbering) {
  Ring<Tagged> ring(4);
  for (uint64_t v = 1; v <= 6; ++v) ring.Push(MakeTagged(v));
  ASSERT_EQ(ring.overwritten(), 2u);
  ring.Clear();
  EXPECT_EQ(ring.appended(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  // Cleared slots are reused without counting an overwrite, and
  // numbering starts again at 1.
  EXPECT_EQ(ring.Push(MakeTagged(100)), RingPush::kStored);
  EXPECT_EQ(ring.Push(MakeTagged(101)), RingPush::kStored);
  std::vector<Tagged> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].value, 100u);
  EXPECT_EQ(records[1].seq, 2u);
  for (uint64_t v = 102; v <= 105; ++v) ring.Push(MakeTagged(v));
  EXPECT_EQ(ring.overwritten(), 2u);
  EXPECT_EQ(Values(ring), (std::vector<uint64_t>{102, 103, 104, 105}));
}

}  // namespace
}  // namespace ode::obs
