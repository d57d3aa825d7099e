// Tests for the SLO rule language (serve/slo.h) and the telemetry pump
// (serve/telemetry.h): rule parsing, per-tick evaluation, JSONL output,
// Prometheus exposition, counter deltas, '#'-family sketch merging, and
// SLO-triggered history dumps.

#include "src/serve/telemetry.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/json.h"
#include "src/serve/slo.h"
#include "tests/test_util.h"

namespace scwsc {
namespace serve {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  return contents;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// --- rule parsing ----------------------------------------------------------

TEST(SloRuleTest, ParsesEveryMetricAndOperator) {
  auto p99 = ParseSloRule("p99_latency_ms<=250");
  SCWSC_ASSERT_OK(p99.status());
  EXPECT_EQ(p99->metric, SloMetric::kLatencyQuantile);
  EXPECT_EQ(p99->op, SloOp::kAtMost);
  EXPECT_DOUBLE_EQ(p99->quantile, 0.99);
  EXPECT_DOUBLE_EQ(p99->threshold, 250.0);

  auto p999 = ParseSloRule("p999_latency_ms < 1000");
  SCWSC_ASSERT_OK(p999.status());
  EXPECT_DOUBLE_EQ(p999->quantile, 0.999);

  auto p50 = ParseSloRule("p50_latency_ms<=5");
  SCWSC_ASSERT_OK(p50.status());
  EXPECT_DOUBLE_EQ(p50->quantile, 0.5);

  auto err = ParseSloRule("error_rate<=0.01");
  SCWSC_ASSERT_OK(err.status());
  EXPECT_EQ(err->metric, SloMetric::kErrorRate);

  auto depth = ParseSloRule("queue_depth<=100");
  SCWSC_ASSERT_OK(depth.status());
  EXPECT_EQ(depth->metric, SloMetric::kQueueDepth);

  auto empty = ParseSloRule("queue_depth==0");
  SCWSC_ASSERT_OK(empty.status());
  EXPECT_EQ(empty->metric, SloMetric::kQueueDepth);
  EXPECT_EQ(empty->op, SloOp::kEquals);
  EXPECT_EQ(empty->text, "queue_depth==0");
}

TEST(SloRuleTest, RejectsMalformedRules) {
  EXPECT_FALSE(ParseSloRule("").ok());
  EXPECT_FALSE(ParseSloRule("p99_latency_ms").ok());          // no operator
  EXPECT_FALSE(ParseSloRule("p99_latency_ms<=abc").ok());     // bad number
  EXPECT_FALSE(ParseSloRule("p99_latency_ms<=-5").ok());      // negative
  EXPECT_FALSE(ParseSloRule("p99_latency_ms<=5x").ok());      // trailing junk
  const Status unknown = ParseSloRule("p42_latency_ms<=5").status();
  EXPECT_FALSE(unknown.ok());
  // The error names the accepted metrics so typos are self-explaining.
  EXPECT_NE(unknown.ToString().find("p99_latency_ms"), std::string::npos);
}

TEST(SloRuleTest, ParseSloRulesFailsOnFirstBadRule) {
  auto ok = ParseSloRules({"p99_latency_ms<=1", "queue_depth<=10"});
  SCWSC_ASSERT_OK(ok.status());
  EXPECT_EQ(ok->size(), 2u);
  EXPECT_FALSE(ParseSloRules({"p99_latency_ms<=1", "nope<=2"}).ok());
}

// --- evaluation ------------------------------------------------------------

TEST(SloEvaluateTest, LatencyRuleComparesMilliseconds) {
  obs::QuantileSketch sketch;
  for (int i = 0; i < 100; ++i) sketch.Observe(0.050);  // 50 ms
  SloSample sample;
  sample.latency = &sketch;

  auto tight = ParseSloRule("p99_latency_ms<=10");
  auto loose = ParseSloRule("p99_latency_ms<=100");
  SCWSC_ASSERT_OK(tight.status());
  SCWSC_ASSERT_OK(loose.status());
  const auto violations = EvaluateSlos({*tight, *loose}, sample);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule.text, tight->text);
  EXPECT_NEAR(violations[0].observed, 50.0, 1.0);  // reported in ms
}

TEST(SloEvaluateTest, LatencyRulePassesWithNoData) {
  auto rule = ParseSloRule("p99_latency_ms<=0.001");
  SCWSC_ASSERT_OK(rule.status());
  EXPECT_TRUE(EvaluateSlos({*rule}, SloSample{}).empty());
  obs::QuantileSketch empty;
  SloSample sample;
  sample.latency = &empty;
  EXPECT_TRUE(EvaluateSlos({*rule}, sample).empty());
}

TEST(SloEvaluateTest, ErrorRateSkipsTicksWithoutTraffic) {
  auto rule = ParseSloRule("error_rate<=0.1");
  SCWSC_ASSERT_OK(rule.status());
  SloSample quiet;  // no completions, no failures
  EXPECT_TRUE(EvaluateSlos({*rule}, quiet).empty());

  SloSample failing;
  failing.completed_delta = 1;
  failing.failed_delta = 1;  // 50% error rate
  const auto violations = EvaluateSlos({*rule}, failing);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_DOUBLE_EQ(violations[0].observed, 0.5);
}

TEST(SloEvaluateTest, GaugeRulesUseQueueDepth) {
  auto at_most = ParseSloRule("queue_depth<=10");
  auto empty = ParseSloRule("queue_depth==0");
  auto exact = ParseSloRule("queue_depth==50");
  SCWSC_ASSERT_OK(at_most.status());
  SCWSC_ASSERT_OK(empty.status());
  SCWSC_ASSERT_OK(exact.status());
  SloSample sample;
  sample.queue_depth = 50.0;
  const auto violations = EvaluateSlos({*at_most, *empty, *exact}, sample);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].rule.text, "queue_depth<=10");
  EXPECT_EQ(violations[1].rule.text, "queue_depth==0");
  EXPECT_DOUBLE_EQ(violations[0].observed, 50.0);
  EXPECT_DOUBLE_EQ(violations[1].observed, 50.0);
}

// --- the pump --------------------------------------------------------------

TEST(TelemetryPumpTest, TicksAppendParsableJsonlWithDeltas) {
  const std::string jsonl = ::testing::TempDir() + "/scwsc_telemetry.jsonl";
  std::remove(jsonl.c_str());

  obs::MetricRegistry registry;
  TelemetryOptions options;
  options.interval_seconds = 0.0;  // manual ticks only
  options.jsonl_path = jsonl;
  TelemetryPump pump(&registry, options);

  registry.counter("serve.jobs.completed").Increment(3);
  registry.gauge("serve.queue.depth").Set(2.0);
  registry.sketch("serve.latency_seconds#cwsc").Observe(0.010);
  registry.sketch("serve.latency_seconds#exact").Observe(0.030);
  pump.TickNow();
  registry.counter("serve.jobs.completed").Increment(4);
  pump.TickNow();
  EXPECT_EQ(pump.ticks(), 2u);
  SCWSC_EXPECT_OK(pump.last_error());

  const auto lines = SplitLines(ReadWholeFile(jsonl));
  ASSERT_EQ(lines.size(), 2u);
  auto first = ParseJson(lines[0]);
  auto second = ParseJson(lines[1]);
  SCWSC_ASSERT_OK(first.status());
  SCWSC_ASSERT_OK(second.status());

  // Tick 1: counters carry absolutes, deltas equal them (prev was empty).
  const JsonValue* counters = first->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("serve.jobs.completed")->as_number(), 3.0);
  const JsonValue* deltas = second->Find("deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_DOUBLE_EQ(deltas->Find("serve.jobs.completed")->as_number(), 4.0);

  // The '#'-family members merged into an aggregate quantile entry.
  const JsonValue* quantiles = first->Find("quantiles");
  ASSERT_NE(quantiles, nullptr);
  const JsonValue* family = quantiles->Find("serve.latency_seconds");
  ASSERT_NE(family, nullptr);
  EXPECT_DOUBLE_EQ(family->Find("count")->as_number(), 2.0);
  EXPECT_NE(quantiles->Find("serve.latency_seconds#cwsc"), nullptr);
  const JsonValue* gauges = first->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("serve.queue.depth")->as_number(), 2.0);
  std::remove(jsonl.c_str());
}

TEST(TelemetryPumpTest, ViolationBumpsCounterAndDumpsHistory) {
  const std::string jsonl = ::testing::TempDir() + "/scwsc_slo.jsonl";
  const std::string dump = ::testing::TempDir() + "/scwsc_slo_trace.json";
  std::remove(jsonl.c_str());
  std::remove(dump.c_str());

  obs::MetricRegistry registry;
  obs::TraceSession history(64);
  TelemetryOptions options;
  options.interval_seconds = 0.0;
  options.jsonl_path = jsonl;
  auto rule = ParseSloRule("p99_latency_ms<=0.000001");  // always trips
  SCWSC_ASSERT_OK(rule.status());
  options.slo_rules.push_back(*rule);
  options.slo_dump_path = dump;
  TelemetryPump pump(&registry, options, &history);

  {
    obs::Span run(&history, "serve.run");
    run.set_value(0.125);
    run.Event("cache.miss");
  }
  registry.sketch("serve.latency_seconds#cwsc").Observe(0.5);
  pump.TickNow();
  EXPECT_GE(pump.violations(), 1u);
  EXPECT_EQ(registry.CounterValue("serve.slo.violations"),
            pump.violations());
  ASSERT_FALSE(pump.dump_paths().empty());
  EXPECT_EQ(pump.dump_paths()[0], dump);

  // The dump is the history session through the Chrome exporter, values
  // included.
  const std::string trace = ReadWholeFile(dump);
  EXPECT_TRUE(test::JsonChecker::IsValid(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serve.run\""), std::string::npos);
  EXPECT_NE(trace.find("\"v\":0.125"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"cache.miss\""), std::string::npos);

  // The violating tick's JSONL line names the rule.
  const auto lines = SplitLines(ReadWholeFile(jsonl));
  ASSERT_FALSE(lines.empty());
  auto parsed = ParseJson(lines[0]);
  SCWSC_ASSERT_OK(parsed.status());
  const JsonValue* slo = parsed->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_GE(slo->Find("violations_total")->as_number(), 1.0);
  std::remove(jsonl.c_str());
  std::remove(dump.c_str());
}

TEST(TelemetryPumpTest, DumpCountIsCapped) {
  obs::MetricRegistry registry;
  obs::TraceSession history(16);
  TelemetryOptions options;
  options.interval_seconds = 0.0;
  auto rule = ParseSloRule("queue_depth<=0.5");
  SCWSC_ASSERT_OK(rule.status());
  options.slo_rules.push_back(*rule);
  options.slo_dump_path = ::testing::TempDir() + "/scwsc_capped_trace.json";
  options.max_slo_dumps = 1;
  TelemetryPump pump(&registry, options, &history);

  registry.gauge("serve.queue.depth").Set(10.0);
  pump.TickNow();
  pump.TickNow();
  pump.TickNow();
  EXPECT_EQ(pump.violations(), 3u);  // still counted
  EXPECT_EQ(pump.dump_paths().size(), 1u);  // but dumped once
  std::remove(pump.dump_paths()[0].c_str());
}

TEST(TelemetryPumpTest, PrometheusExpositionIsRewrittenEachTick) {
  const std::string prom = ::testing::TempDir() + "/scwsc_telemetry.prom";
  std::remove(prom.c_str());

  obs::MetricRegistry registry;
  TelemetryOptions options;
  options.interval_seconds = 0.0;
  options.prom_path = prom;
  TelemetryPump pump(&registry, options);

  registry.counter("serve.jobs.completed").Increment(7);
  registry.sketch("serve.latency_seconds#cwsc").Observe(0.25);
  pump.TickNow();

  const std::string text = ReadWholeFile(prom);
  EXPECT_NE(text.find("# TYPE scwsc_serve_jobs_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("scwsc_serve_jobs_completed 7"), std::string::npos);
  EXPECT_NE(text.find("member=\"cwsc\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  std::remove(prom.c_str());
}

TEST(TelemetryPumpTest, BackgroundThreadTicksAndStops) {
  obs::MetricRegistry registry;
  TelemetryOptions options;
  options.interval_seconds = 0.005;
  options.prom_path = ::testing::TempDir() + "/scwsc_bg.prom";
  int sampled = 0;
  TelemetryPump pump(&registry, options);
  pump.SetTickSampler([&sampled] { ++sampled; });
  // Stop() joins the thread and runs one final tick, so at least one tick
  // (and one sampler call) is guaranteed even on a slow machine.
  pump.Stop();
  pump.Stop();  // idempotent
  EXPECT_GE(pump.ticks(), 1u);
  EXPECT_GE(sampled, 1);
  std::remove(options.prom_path.c_str());
}

TEST(TelemetryPumpTest, SuppressedWarnGaugeIsMirrored) {
  obs::MetricRegistry registry;
  TelemetryOptions options;
  options.interval_seconds = 0.0;
  options.prom_path = ::testing::TempDir() + "/scwsc_supp.prom";
  TelemetryPump pump(&registry, options);
  pump.TickNow();
  // The gauge exists after a tick (its value is the process-wide total,
  // which other tests may have grown — only presence is asserted here).
  const auto gauges = registry.GaugeValues();
  bool found = false;
  for (const auto& [name, value] : gauges) {
    if (name == "log.suppressed") found = true;
  }
  EXPECT_TRUE(found);
  std::remove(options.prom_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace scwsc
