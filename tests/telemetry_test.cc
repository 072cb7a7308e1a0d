// Tests for the telemetry subsystem: counter sharding under threads,
// nested span trees, histogram percentiles, JSON round-trip, disabled-mode
// no-ops, and the thread-safe log sink hook.

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace saged::telemetry {
namespace {

/// Enables telemetry from a clean slate and restores the disabled default
/// afterwards, so tests never observe each other's instruments.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TelemetryRegistry::Get().Reset();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    TelemetryRegistry::Get().Reset();
  }
};

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser, enough to round-trip the
// DumpJson schema (objects, arrays, strings, numbers).
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, double, std::string, JsonObject, JsonArray>
      value;

  bool IsObject() const { return std::holds_alternative<JsonObject>(value); }
  const JsonObject& AsObject() const { return std::get<JsonObject>(value); }
  const JsonArray& AsArray() const { return std::get<JsonArray>(value); }
  double AsNumber() const { return std::get<double>(value); }
  const std::string& AsString() const { return std::get<std::string>(value); }

  const JsonValue& At(const std::string& key) const {
    auto it = AsObject().find(key);
    EXPECT_NE(it, AsObject().end()) << "missing key " << key;
    static JsonValue null_value;
    return it == AsObject().end() ? null_value : *it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> Parse() {
    auto v = ParseValue();
    SkipSpace();
    EXPECT_EQ(pos_, text_.size()) << "trailing JSON content";
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void Expect(char c) {
    SkipSpace();
    ASSERT_LT(pos_, text_.size());
    ASSERT_EQ(text_[pos_], c) << "at offset " << pos_;
    ++pos_;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    char c = Peek();
    auto out = std::make_shared<JsonValue>();
    if (c == '{') {
      JsonObject obj;
      Expect('{');
      if (Peek() != '}') {
        while (true) {
          std::string key = ParseString();
          Expect(':');
          obj[key] = ParseValue();
          if (Peek() != ',') break;
          Expect(',');
        }
      }
      Expect('}');
      out->value = std::move(obj);
    } else if (c == '[') {
      JsonArray arr;
      Expect('[');
      if (Peek() != ']') {
        while (true) {
          arr.push_back(ParseValue());
          if (Peek() != ',') break;
          Expect(',');
        }
      }
      Expect(']');
      out->value = std::move(arr);
    } else if (c == '"') {
      out->value = ParseString();
    } else {
      out->value = ParseNumber();
    }
    return out;
  }

  std::string ParseString() {
    Expect('"');
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;
        switch (text_[pos_]) {
          case 'n':
            s += '\n';
            break;
          case 't':
            s += '\t';
            break;
          default:
            s += text_[pos_];
        }
      } else {
        s += text_[pos_];
      }
      ++pos_;
    }
    Expect('"');
    return s;
  }

  double ParseNumber() {
    SkipSpace();
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    double v = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

const MergedSpan* FindSpan(const std::vector<MergedSpan>& spans,
                           const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, CounterCountsExactly) {
  SAGED_COUNTER_ADD("test.counter", 5);
  SAGED_COUNTER_INC("test.counter");
  EXPECT_EQ(TelemetryRegistry::Get().CounterValue("test.counter"), 6u);
}

TEST_F(TelemetryTest, CounterShardingExactUnderThreads) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (size_t i = 0; i < kPerThread; ++i) {
        SAGED_COUNTER_INC("test.sharded");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(TelemetryRegistry::Get().CounterValue("test.sharded"),
            kThreads * kPerThread);
}

TEST_F(TelemetryTest, UnknownCounterIsZero) {
  EXPECT_EQ(TelemetryRegistry::Get().CounterValue("no.such.counter"), 0u);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, HistogramPercentiles) {
  auto* hist = TelemetryRegistry::Get().FindOrCreateHistogram("test.latency");
  // 1..1000 in shuffled order: p50 ~ 500, p95 ~ 950, p99 ~ 990.
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(static_cast<double>(i));
  Rng rng(11);
  rng.Shuffle(values);
  for (double v : values) hist->Observe(v);

  auto stats = hist->Snapshot();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 1000.0);
  EXPECT_NEAR(stats.mean, 500.5, 0.01);
  // Percentile values are log-linear bucket midpoints: allow the bucket
  // resolution (~1/32 relative) plus slack.
  EXPECT_NEAR(stats.p50, 500.0, 50.0);
  EXPECT_NEAR(stats.p90, 900.0, 90.0);
  EXPECT_NEAR(stats.p95, 950.0, 95.0);
  EXPECT_NEAR(stats.p99, 990.0, 99.0);
  EXPECT_LE(stats.p50, stats.p90);
  EXPECT_LE(stats.p90, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
}

TEST_F(TelemetryTest, HistogramHandlesExtremeValues) {
  auto* hist = TelemetryRegistry::Get().FindOrCreateHistogram("test.extreme");
  hist->Observe(0.0);     // non-positive goes into the underflow bucket
  hist->Observe(-3.0);
  hist->Observe(1e-12);   // below bucket range
  hist->Observe(1e300);   // above bucket range
  auto stats = hist->Snapshot();
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.min, -3.0);
  EXPECT_DOUBLE_EQ(stats.max, 1e300);
}

TEST_F(TelemetryTest, HistogramConcurrentObserve) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 20000;
  auto* hist = TelemetryRegistry::Get().FindOrCreateHistogram("test.mt");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        hist->Observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = hist->Snapshot();
  EXPECT_EQ(stats.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, static_cast<double>(kThreads));
}

// ---------------------------------------------------------------------------
// Gauges + memory probes (streaming path instrumentation)
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, GaugeTracksLastValueAndWatermark) {
  SAGED_GAUGE_SET("test.gauge", 7);
  SAGED_GAUGE_SET("test.gauge", 42);
  SAGED_GAUGE_SET("test.gauge", 11);
  auto& reg = TelemetryRegistry::Get();
  EXPECT_EQ(reg.GaugeValue("test.gauge"), 11u);  // last sample
  EXPECT_EQ(reg.GaugeMax("test.gauge"), 42u);    // high watermark
  EXPECT_EQ(reg.GaugeValue("no.such.gauge"), 0u);
  EXPECT_EQ(reg.GaugeMax("no.such.gauge"), 0u);
}

TEST_F(TelemetryTest, GaugeResetClearsBothValueAndMax) {
  SAGED_GAUGE_SET("test.gauge_reset", 99);
  TelemetryRegistry::Get().Reset();
  EXPECT_EQ(TelemetryRegistry::Get().GaugeValue("test.gauge_reset"), 0u);
  EXPECT_EQ(TelemetryRegistry::Get().GaugeMax("test.gauge_reset"), 0u);
}

TEST_F(TelemetryTest, GaugeDisabledModeRecordsNothing) {
  SetEnabled(false);
  SAGED_GAUGE_SET("test.gauge_off", 5);
  SetGauge("test.gauge_off_slow", 5);
  SetEnabled(true);
  EXPECT_EQ(TelemetryRegistry::Get().GaugeValue("test.gauge_off"), 0u);
  EXPECT_EQ(TelemetryRegistry::Get().GaugeValue("test.gauge_off_slow"), 0u);
}

TEST_F(TelemetryTest, GaugeConcurrentSetKeepsTrueMax) {
  constexpr size_t kThreads = 8;
  auto* gauge = TelemetryRegistry::Get().FindOrCreateGauge("test.gauge_mt");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge, t] {
      for (uint64_t i = 0; i < 5000; ++i) gauge->Set(t * 10000 + i);
    });
  }
  for (auto& t : threads) t.join();
  // The watermark is the largest value any thread ever set.
  EXPECT_EQ(gauge->Max(), (kThreads - 1) * 10000 + 4999);
}

TEST_F(TelemetryTest, RssProbesReturnPlausibleValues) {
  // Linux-only probes; on this target they must produce a nonzero RSS and a
  // peak at least as large as the current value.
  uint64_t current = CurrentRssBytes();
  uint64_t peak = PeakRssBytes();
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current);
  // The streaming macro samples into a gauge without crashing.
  SAGED_GAUGE_SAMPLE_RSS("test.rss_gauge");
  EXPECT_GT(TelemetryRegistry::Get().GaugeValue("test.rss_gauge"), 0u);
}

TEST_F(TelemetryTest, TryResetPeakRssRewindsWhenKernelAllows) {
  // Inflate the peak, then rewind. Where the kernel honours clear_refs the
  // new peak must drop to roughly the current RSS; where it refuses, the
  // call reports false and the peak is unchanged.
  {
    std::vector<char> ballast(64 << 20, 1);
    EXPECT_GT(ballast[12345], 0);
  }
  uint64_t before = PeakRssBytes();
  if (TryResetPeakRss()) {
    EXPECT_LE(PeakRssBytes(), before);
  } else {
    EXPECT_EQ(PeakRssBytes(), before);
  }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, NestedSpanTree) {
  {
    SAGED_TRACE_SPAN("outer");
    {
      SAGED_TRACE_SPAN("inner");
    }
    {
      SAGED_TRACE_SPAN("inner");
    }
    {
      SAGED_TRACE_SPAN("other");
    }
  }
  auto spans = SnapshotSpans();
  const MergedSpan* outer = FindSpan(spans, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  const MergedSpan* inner = FindSpan(outer->children, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  const MergedSpan* other = FindSpan(outer->children, "other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->count, 1u);
  // Parent wall time covers its children.
  EXPECT_GE(outer->total_ns, inner->total_ns + other->total_ns);
}

// A thread that picks up a pooled task while its own span is open (the
// executor's help-while-waiting) must record the task under the task's
// captured path from the root, not nested under its own span — and get its
// own stack back afterwards.
TEST_F(TelemetryTest, ScopedSpanPathReentersFromTheRoot) {
  {
    SAGED_TRACE_SPAN("mine");
    {
      ScopedSpanPath reenter({"theirs"});
      SAGED_TRACE_SPAN("work");
    }
    EXPECT_EQ(CurrentSpanPath(), std::vector<std::string>{"mine"});
    SAGED_TRACE_SPAN("after");
  }
  auto spans = SnapshotSpans();
  const MergedSpan* theirs = FindSpan(spans, "theirs");
  ASSERT_NE(theirs, nullptr);
  EXPECT_NE(FindSpan(theirs->children, "work"), nullptr);
  const MergedSpan* mine = FindSpan(spans, "mine");
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(FindSpan(mine->children, "theirs"), nullptr);
  EXPECT_NE(FindSpan(mine->children, "after"), nullptr);
}

TEST_F(TelemetryTest, SpansFromWorkerThreadsMergeByName) {
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      SAGED_TRACE_SPAN("worker");
      SAGED_TRACE_SPAN("worker/step");
    });
  }
  for (auto& t : threads) t.join();
  auto spans = SnapshotSpans();
  const MergedSpan* worker = FindSpan(spans, "worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, kThreads);
  // All contributing thread ids are recorded (distinct threads).
  EXPECT_EQ(worker->threads.size(), kThreads);
  const MergedSpan* step = FindSpan(worker->children, "worker/step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->count, kThreads);
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  SAGED_COUNTER_INC("test.reset");
  ObserveHistogram("test.reset_hist", 1.0);
  {
    SAGED_TRACE_SPAN("reset_span");
  }
  TelemetryRegistry::Get().Reset();
  EXPECT_EQ(TelemetryRegistry::Get().CounterValue("test.reset"), 0u);
  EXPECT_EQ(TelemetryRegistry::Get().HistogramSnapshot("test.reset_hist").count,
            0u);
  auto spans = SnapshotSpans();
  EXPECT_EQ(FindSpan(spans, "reset_span"), nullptr);
}

// ---------------------------------------------------------------------------
// Disabled mode
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  SetEnabled(false);
  SAGED_COUNTER_INC("test.disabled");
  SAGED_HISTOGRAM_OBSERVE("test.disabled_hist", 1.0);
  {
    SAGED_TRACE_SPAN("disabled_span");
  }
  AddCounter("test.disabled_slow", 1);
  ObserveHistogram("test.disabled_hist_slow", 1.0);
  SetEnabled(true);
  EXPECT_EQ(TelemetryRegistry::Get().CounterValue("test.disabled"), 0u);
  EXPECT_EQ(
      TelemetryRegistry::Get().HistogramSnapshot("test.disabled_hist").count,
      0u);
  EXPECT_EQ(FindSpan(SnapshotSpans(), "disabled_span"), nullptr);
  EXPECT_EQ(TelemetryRegistry::Get().CounterValue("test.disabled_slow"), 0u);
}

TEST_F(TelemetryTest, SpanOpenedWhileEnabledFinishesAfterDisable) {
  {
    SAGED_TRACE_SPAN("toggled");
    SetEnabled(false);
  }
  SetEnabled(true);
  auto spans = SnapshotSpans();
  const MergedSpan* toggled = FindSpan(spans, "toggled");
  ASSERT_NE(toggled, nullptr);
  EXPECT_EQ(toggled->count, 1u);
}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, JsonRoundTrip) {
  SAGED_COUNTER_ADD("json.counter", 42);
  for (int i = 1; i <= 100; ++i) {
    ObserveHistogram("json.hist", static_cast<double>(i));
  }
  {
    SAGED_TRACE_SPAN("json/root");
    SAGED_TRACE_SPAN("json/child");
  }

  std::string json = TelemetryRegistry::Get().DumpJson();
  JsonParser parser(json);
  auto doc = parser.Parse();
  ASSERT_TRUE(doc->IsObject());

  EXPECT_EQ(doc->At("version").AsNumber(), 1.0);
  EXPECT_EQ(doc->At("counters").At("json.counter").AsNumber(), 42.0);

  const auto& hist = doc->At("histograms").At("json.hist");
  EXPECT_EQ(hist.At("count").AsNumber(), 100.0);
  EXPECT_DOUBLE_EQ(hist.At("min").AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(hist.At("max").AsNumber(), 100.0);
  EXPECT_NEAR(hist.At("p50").AsNumber(), 50.0, 10.0);

  const auto& spans = doc->At("spans").AsArray();
  bool found = false;
  for (const auto& span : spans) {
    if (span->At("name").AsString() != "json/root") continue;
    found = true;
    EXPECT_EQ(span->At("count").AsNumber(), 1.0);
    EXPECT_GE(span->At("total_ms").AsNumber(), 0.0);
    const auto& children = span->At("children").AsArray();
    ASSERT_EQ(children.size(), 1u);
    EXPECT_EQ(children[0]->At("name").AsString(), "json/child");
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, JsonIncludesGauges) {
  SAGED_GAUGE_SET("json.gauge", 9);
  SAGED_GAUGE_SET("json.gauge", 3);
  std::string json = TelemetryRegistry::Get().DumpJson();
  JsonParser parser(json);
  auto doc = parser.Parse();
  const auto& gauge = doc->At("gauges").At("json.gauge");
  EXPECT_EQ(gauge.At("value").AsNumber(), 3.0);
  EXPECT_EQ(gauge.At("max").AsNumber(), 9.0);
}

TEST_F(TelemetryTest, JsonEscapesSpecialCharacters) {
  SAGED_COUNTER_INC("weird\"name\\with\nspecials");
  std::string json = TelemetryRegistry::Get().DumpJson();
  JsonParser parser(json);
  auto doc = parser.Parse();
  EXPECT_EQ(doc->At("counters").At("weird\"name\\with\nspecials").AsNumber(),
            1.0);
}

// ---------------------------------------------------------------------------
// Log sink (common/logging.h satellite)
// ---------------------------------------------------------------------------

TEST(LogSinkTest, CapturesMessages) {
  std::vector<std::string> captured;
  SetLogSink([&captured](LogLevel, const std::string& message) {
    captured.push_back(message);
  });
  SAGED_LOG(Info) << "hello " << 42;
  SetLogSink(nullptr);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("hello 42"), std::string::npos);
  EXPECT_NE(captured[0].find("INFO"), std::string::npos);
}

TEST(LogSinkTest, BelowMinLevelNotDelivered) {
  std::vector<std::string> captured;
  SetLogSink([&captured](LogLevel, const std::string& message) {
    captured.push_back(message);
  });
  SAGED_LOG(Debug) << "too quiet";  // default min level is Info
  SetLogSink(nullptr);
  EXPECT_TRUE(captured.empty());
}

TEST(LogSinkTest, ConcurrentMessagesArriveWhole) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 200;
  std::vector<std::string> captured;
  SetLogSink([&captured](LogLevel, const std::string& message) {
    // The sink runs under the logging mutex: no extra locking needed.
    captured.push_back(message);
  });
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        SAGED_LOG(Info) << "msg-" << t << "-" << i << "-end";
      }
    });
  }
  for (auto& t : threads) t.join();
  SetLogSink(nullptr);
  ASSERT_EQ(captured.size(), kThreads * kPerThread);
  for (const auto& message : captured) {
    // Every line is one complete message: prefix, then exactly one payload
    // terminated by "-end".
    EXPECT_NE(message.find("msg-"), std::string::npos);
    EXPECT_EQ(message.find("msg-"), message.rfind("msg-"));
    EXPECT_EQ(message.substr(message.size() - 4), "-end");
  }
}

}  // namespace
}  // namespace saged::telemetry
