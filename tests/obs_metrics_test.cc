// Tests for the metric registry (counters, gauges, sketches, concurrent
// recording) and the metrics JSON/CSV/Prometheus exporters.

#include "src/obs/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/export.h"
#include "tests/test_util.h"

namespace scwsc {
namespace obs {
namespace {

TEST(MetricRegistryTest, CounterGetOrCreateIsStable) {
  MetricRegistry registry;
  MetricCounter& a = registry.counter("solve.picks");
  a.Increment();
  MetricCounter& b = registry.counter("solve.picks");
  b.Increment(4);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.CounterValue("solve.picks"), 5u);
  EXPECT_EQ(registry.CounterValue("never.created"), 0u);
}

TEST(MetricRegistryTest, GaugeIsLastWriteWins) {
  MetricRegistry registry;
  registry.gauge("budget").Set(8.0);
  registry.gauge("budget").Set(16.0);
  EXPECT_EQ(registry.GaugeValue("budget"), 16.0);
  EXPECT_EQ(registry.GaugeValue("missing"), 0.0);
}

TEST(MetricRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolve-once-then-update, the pattern the hot loops use.
      MetricCounter& counter = registry.counter("shared");
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("shared"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricRegistryTest, SnapshotsAreSortedByName) {
  MetricRegistry registry;
  registry.counter("zeta").Increment();
  registry.counter("alpha").Increment();
  registry.counter("mid").Increment();
  const auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[1].first, "mid");
  EXPECT_EQ(values[2].first, "zeta");
}

TEST(MetricsExportTest, JsonIsWellFormedAndCarriesEveryInstrument) {
  MetricRegistry registry;
  registry.counter("engine.celf_hits").Increment(7);
  registry.gauge("solve.cwsc.final_budget").Set(32.0);
  registry.sketch("solve.seconds").Observe(0.02);

  const std::string json = ToMetricsJson(registry);
  EXPECT_TRUE(test::JsonChecker::IsValid(json)) << json;
  EXPECT_NE(json.find("\"engine.celf_hits\":7"), std::string::npos);
  EXPECT_NE(json.find("solve.cwsc.final_budget"), std::string::npos);
  EXPECT_NE(json.find("\"solve.seconds\""), std::string::npos);
}

TEST(MetricsExportTest, EmptyRegistryStillParses) {
  MetricRegistry registry;
  EXPECT_TRUE(test::JsonChecker::IsValid(ToMetricsJson(registry)));
}

TEST(MetricsExportTest, JsonCarriesSketchQuantiles) {
  MetricRegistry registry;
  registry.sketch("serve.latency_seconds#cwsc").Observe(0.25);
  const std::string json = ToMetricsJson(registry);
  EXPECT_TRUE(test::JsonChecker::IsValid(json)) << json;
  EXPECT_NE(json.find("\"sketches\""), std::string::npos);
  EXPECT_NE(json.find("serve.latency_seconds#cwsc"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsExportTest, PrometheusTextRendersEveryInstrument) {
  MetricRegistry registry;
  registry.counter("serve.jobs.completed").Increment(3);
  registry.gauge("serve.queue.depth").Set(4.0);
  registry.sketch("serve.latency_seconds#cwsc").Observe(0.02);

  const std::string text = ToPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE scwsc_serve_jobs_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("scwsc_serve_jobs_completed 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scwsc_serve_queue_depth gauge"),
            std::string::npos);
  // Sketch members become labelled summary quantiles on the family name.
  EXPECT_NE(text.find("scwsc_serve_latency_seconds{member=\"cwsc\","),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("_count"), std::string::npos);
}

// The satellite for continuous telemetry: exporters render while writer
// threads are mid-update, so a reader must never see torn state or crash
// (the TSan CI job runs this test under ThreadSanitizer).
TEST(MetricsExportTest, ConcurrentWritersAndExportersStayWellFormed) {
  MetricRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kUpdates = 3000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, t] {
      const std::string suffix = std::to_string(t);
      for (int i = 0; i < kUpdates; ++i) {
        registry.counter("w.count." + suffix).Increment();
        registry.gauge("w.gauge." + suffix).Set(static_cast<double>(i));
        registry.sketch("w.lat#" + suffix).Observe(0.001 * (i + 1));
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    EXPECT_TRUE(test::JsonChecker::IsValid(ToMetricsJson(registry)));
    const std::string csv = ToMetricsCsv(registry);
    EXPECT_EQ(csv.rfind("kind,name,value\n", 0), 0u);
    // Exercised for data races only: the registry may legitimately still
    // be empty if this round outruns every writer's first update.
    (void)ToPrometheusText(registry);
  }
  for (std::thread& t : writers) t.join();
  EXPECT_FALSE(ToPrometheusText(registry).empty());
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(registry.CounterValue("w.count." + std::to_string(t)),
              static_cast<std::uint64_t>(kUpdates));
  }
  const std::string json = ToMetricsJson(registry);
  EXPECT_TRUE(test::JsonChecker::IsValid(json)) << json;
}

TEST(MetricsExportTest, CsvFlattensEveryInstrument) {
  MetricRegistry registry;
  registry.counter("picks").Increment(3);
  registry.gauge("budget").Set(8.0);
  registry.sketch("lat").Observe(0.5);

  const std::string csv = ToMetricsCsv(registry);
  EXPECT_EQ(csv.rfind("kind,name,value\n", 0), 0u);  // header first
  EXPECT_NE(csv.find("counter,picks,3\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,budget,8\n"), std::string::npos);
  EXPECT_NE(csv.find("sketch,lat.p50,"), std::string::npos);
  EXPECT_NE(csv.find("sketch,lat.count,1\n"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace scwsc
