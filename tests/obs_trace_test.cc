// Tests for the trace-span system: nesting/parenting, ordering, thread
// tagging, events and values, the disabled-session no-op contract, bounded
// retention (wrap, long-open spans, writers racing dumps — the TSan CI job
// runs this file), and the Chrome trace-event exporter (structure, file
// dump, JSON well-formedness).

#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/export.h"
#include "tests/test_util.h"

namespace scwsc {
namespace obs {
namespace {

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(TraceSessionTest, NestedSpansParentToInnermostOpen) {
  TraceSession session;
  {
    Span outer(&session, "outer");
    {
      Span inner(&session, "inner");
      Span deepest(&session, "deepest");
    }
    Span sibling(&session, "sibling");
  }
  const std::vector<SpanRecord> spans = session.spans();
  ASSERT_EQ(spans.size(), 4u);

  const SpanRecord* outer = FindSpan(spans, "outer");
  const SpanRecord* inner = FindSpan(spans, "inner");
  const SpanRecord* deepest = FindSpan(spans, "deepest");
  const SpanRecord* sibling = FindSpan(spans, "sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(deepest, nullptr);
  ASSERT_NE(sibling, nullptr);

  EXPECT_EQ(outer->parent, kNoSpan);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(deepest->parent, inner->id);
  // `inner` had closed by the time `sibling` opened.
  EXPECT_EQ(sibling->parent, outer->id);

  for (const SpanRecord& s : spans) {
    EXPECT_TRUE(s.closed()) << s.name;
    EXPECT_LE(s.start_ns, s.end_ns) << s.name;
  }
  // Children start no earlier than their parent.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_GE(deepest->start_ns, inner->start_ns);
  EXPECT_LE(deepest->end_ns, outer->end_ns);
}

TEST(TraceSessionTest, SecondRootIsUnparented) {
  TraceSession session;
  { Span a(&session, "a"); }
  { Span b(&session, "b"); }
  const std::vector<SpanRecord> spans = session.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, kNoSpan);
  // Recorded in open order: a before b.
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].name, "b");
  EXPECT_LE(spans[0].end_ns, spans[1].start_ns);
}

TEST(TraceSessionTest, EventsAttachToTheRecordingSpan) {
  TraceSession session;
  {
    Span outer(&session, "outer");
    session.AddEvent("on-outer");  // innermost open span on this thread
    Span inner(&session, "inner");
    session.AddEvent("on-inner");
    outer.Event("explicit-on-outer");  // explicit span, not the innermost
  }
  const std::vector<SpanRecord> spans = session.spans();
  const std::vector<EventRecord> events = session.events();
  const SpanRecord* outer = FindSpan(spans, "outer");
  const SpanRecord* inner = FindSpan(spans, "inner");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "on-outer");
  EXPECT_EQ(events[0].span, outer->id);
  EXPECT_EQ(events[1].name, "on-inner");
  EXPECT_EQ(events[1].span, inner->id);
  EXPECT_EQ(events[2].name, "explicit-on-outer");
  EXPECT_EQ(events[2].span, outer->id);
}

TEST(TraceSessionTest, NullSessionIsANoOp) {
  // The disabled path must be safe everywhere instrumentation lives.
  Span span(nullptr, "never-recorded");
  span.Event("nothing");
  span.End();
  span.End();  // idempotent

  Span defaulted;
  defaulted.Event("nothing");

  Span moved = std::move(span);
  moved.End();
  SUCCEED();
}

TEST(TraceSessionTest, EndIsIdempotentAndEarly) {
  TraceSession session;
  Span span(&session, "once");
  span.End();
  span.End();
  span.Event("after-end");  // dropped: the handle is detached
  const std::vector<SpanRecord> spans = session.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].closed());
  EXPECT_TRUE(session.events().empty());
}

TEST(TraceSessionTest, ConcurrentRecordingKeepsPerThreadNesting) {
  TraceSession session;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, t] {
      Span root(&session, "thread-root-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span child(&session, "child");
        child.Event("tick");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<SpanRecord> spans = session.spans();
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads * (kSpansPerThread + 1)));
  EXPECT_EQ(session.events().size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));

  // Each child parents to its own thread's root, never across threads.
  for (const SpanRecord& s : spans) {
    if (s.name != "child") continue;
    const auto parent = std::find_if(
        spans.begin(), spans.end(),
        [&s](const SpanRecord& p) { return p.id == s.parent; });
    ASSERT_NE(parent, spans.end());
    EXPECT_EQ(parent->thread, s.thread);
  }
}

TEST(TraceSessionTest, SpanSecondsAndPhaseTotalsAggregateByName) {
  TraceSession session;
  { Span a(&session, "phase"); }
  { Span b(&session, "phase"); }
  { Span c(&session, "other"); }
  Span open(&session, "open");  // never closed: excluded from totals

  EXPECT_GE(session.SpanSeconds("phase"), 0.0);
  EXPECT_EQ(session.SpanSeconds("missing"), 0.0);

  const auto totals = session.PhaseTotals();
  ASSERT_EQ(totals.size(), 2u);  // "open" is still open
  EXPECT_EQ(totals[0].first, "other");
  EXPECT_EQ(totals[1].first, "phase");
  EXPECT_EQ(session.SpanSeconds("phase"), totals[1].second);
}

TEST(TraceSessionTest, MovedFromSpanDoesNotDoubleClose) {
  TraceSession session;
  {
    Span outer;
    {
      Span inner(&session, "moved");
      outer = std::move(inner);
    }  // inner destroyed moved-from: the span stays open
    ASSERT_EQ(session.spans().size(), 1u);
    EXPECT_FALSE(session.spans()[0].closed());
  }  // outer closes it once
  ASSERT_EQ(session.spans().size(), 1u);
  EXPECT_TRUE(session.spans()[0].closed());

  // A span moved to another thread closes there, in its opener's record,
  // and stops being a parent on the opener: later spans and events there
  // attach to the opener's innermost span that is still open.
  Span root(&session, "root");
  Span handed_off(&session, "handed-off");
  handed_off.set_value(2.0);
  std::thread([span = std::move(handed_off)]() mutable { span.End(); })
      .join();
  { Span next(&session, "next"); }
  session.AddEvent("after-hand-off");
  root.End();
  { Span orphan(&session, "orphan"); }  // nothing is open any more
  session.AddEvent("after-root");

  const std::vector<SpanRecord> spans = session.spans();
  ASSERT_EQ(spans.size(), 5u);
  const SpanRecord* record = FindSpan(spans, "handed-off");
  const SpanRecord* root_record = FindSpan(spans, "root");
  ASSERT_NE(record, nullptr);
  ASSERT_NE(root_record, nullptr);
  EXPECT_TRUE(record->closed());
  EXPECT_EQ(record->value, 2.0);
  EXPECT_EQ(record->parent, root_record->id);
  EXPECT_EQ(FindSpan(spans, "next")->parent, root_record->id);
  EXPECT_EQ(FindSpan(spans, "orphan")->parent, kNoSpan);
  const std::vector<EventRecord> events = session.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].span, root_record->id);
  EXPECT_EQ(events[1].span, kNoSpan);
}

TEST(TraceSessionTest, BoundedSessionKeepsMemoryBoundedUnderWrap) {
  constexpr std::size_t kBound = 64;
  TraceSession session(kBound);
  for (int i = 1; i <= 1000; ++i) {
    session.AddEvent("tick", static_cast<double>(i));
    if (i % 10 == 0) Span span(&session, "phase");
  }
  const std::vector<EventRecord> events = session.events();
  const std::vector<SpanRecord> spans = session.spans();
  // Closed spans and events share the one bound; nothing is open.
  EXPECT_EQ(events.size() + spans.size(), kBound);
  ASSERT_FALSE(events.empty());
  // The newest records survived the wrap, oldest first; the oldest did not.
  EXPECT_EQ(events.back().value, 1000.0);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].value, events[i].value);
  }
  EXPECT_GT(events.front().value, 1000.0 - static_cast<double>(kBound));
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].id, spans[i].id);  // still in open order
  }
  const std::string json = ToChromeTraceJson(session);
  EXPECT_TRUE(test::JsonChecker::IsValid(json));
  EXPECT_EQ(CountOf(json, "\"tick\""), events.size());
  EXPECT_NE(json.find("\"v\":1000"), std::string::npos);
  EXPECT_EQ(json.find("\"v\":1,"), std::string::npos);
}

TEST(TraceSessionTest, LongOpenSpanSurvivesAHundredTimesItsBound) {
  constexpr std::size_t kBound = 32;
  TraceSession session(kBound);
  Span long_run(&session, "serve.run");
  long_run.set_value(4.6);
  // Later records on the same thread, so they share the span's log.
  for (std::size_t i = 0; i < 100 * kBound; ++i) {
    Span job(&session, "serve.enqueue");
    job.Event("cache.hit");
  }
  // Mid-flight the open span is retained beside a full log.
  std::vector<SpanRecord> spans = session.spans();
  EXPECT_LE(spans.size() + session.events().size(), kBound + 1);
  const SpanRecord* open = FindSpan(spans, "serve.run");
  ASSERT_NE(open, nullptr);
  EXPECT_FALSE(open->closed());
  EXPECT_EQ(spans.front().name, "serve.run");  // opened first

  long_run.End();
  spans = session.spans();
  const SpanRecord* closed = FindSpan(spans, "serve.run");
  ASSERT_NE(closed, nullptr);
  EXPECT_TRUE(closed->closed());
  EXPECT_EQ(closed->value, 4.6);
  EXPECT_LE(spans.size() + session.events().size(), kBound);
  EXPECT_GT(session.SpanSeconds("serve.run"), 0.0);
}

TEST(TraceSessionTest, LongNamesAreKeptNotRejected) {
  TraceSession session(8);
  const std::string long_name(100, 'x');
  session.AddEvent(long_name);
  { Span span(&session, long_name + "-span"); }
  ASSERT_EQ(session.events().size(), 1u);
  EXPECT_EQ(session.events()[0].name, long_name);
  EXPECT_EQ(session.spans()[0].name, long_name + "-span");
  const std::string json = ToChromeTraceJson(session);
  EXPECT_TRUE(test::JsonChecker::IsValid(json));
  EXPECT_NE(json.find("\"" + long_name + "\""), std::string::npos);
}

TEST(TraceSessionTest, ConcurrentWritersAndDumpsStayConsistent) {
  constexpr std::size_t kBound = 256;
  TraceSession session(kBound);
  constexpr int kThreads = 4;
  constexpr int kJobs = 2000;
  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(test::JsonChecker::IsValid(ToChromeTraceJson(session)));
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&session, t] {
      for (int i = 0; i < kJobs; ++i) {
        Span run(&session, "serve.run");
        run.set_value(static_cast<double>(t));
        run.Event("cache.hit");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  // Every writer's spans closed, so each writer's log holds exactly the
  // bound, and every retained event still names a span.
  const std::vector<SpanRecord> spans = session.spans();
  const std::vector<EventRecord> events = session.events();
  EXPECT_EQ(spans.size() + events.size(), kThreads * kBound);
  for (const SpanRecord& s : spans) EXPECT_TRUE(s.closed());
  for (const EventRecord& e : events) EXPECT_NE(e.span, kNoSpan);
  EXPECT_TRUE(test::JsonChecker::IsValid(ToChromeTraceJson(session)));
}

TEST(ChromeExportTest, EmitsWellFormedTraceEventJson) {
  TraceSession session;
  {
    Span outer(&session, "outer \"quoted\"\n");
    outer.Event("trip/deadline");
    Span inner(&session, "inner");
  }
  Span open(&session, "still-open");

  const std::string json = ToChromeTraceJson(session);
  EXPECT_TRUE(test::JsonChecker::IsValid(json)) << json;

  // Chrome trace-event structure: a traceEvents array with complete ("X"),
  // begin ("B") and instant ("i") phases.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);   // still-open
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);   // the event
  EXPECT_NE(json.find("trip/deadline"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);   // thread names
  // The quote and newline in the span name were escaped.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(json.find("outer \"quoted\"\n"), std::string::npos);
}

TEST(ChromeExportTest, ValuesRideInArgs) {
  TraceSession session;
  {
    Span run(&session, "serve.run");
    run.set_value(0.25);
    run.Event("serve.reject/queue_full", 3.0);
    run.Event("cache.miss");
  }
  const std::string json = ToChromeTraceJson(session);
  EXPECT_TRUE(test::JsonChecker::IsValid(json)) << json;
  EXPECT_NE(json.find("\"args\":{\"v\":0.25}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":3}"), std::string::npos);
  // Zero values carry no args.
  EXPECT_EQ(CountOf(json, "\"v\":"), 2u);
}

TEST(ChromeExportTest, DumpToFileWritesParsableTrace) {
  TraceSession session(16);
  session.AddEvent("first");
  Span open(&session, "still-open");
  open.Event("inside", 7.0);

  const std::string path = ::testing::TempDir() + "/scwsc_history_dump.json";
  ASSERT_TRUE(WriteChromeTraceJson(session, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(test::JsonChecker::IsValid(contents)) << contents;
  EXPECT_EQ(contents, ToChromeTraceJson(session));
  EXPECT_NE(contents.find("\"first\""), std::string::npos);
  EXPECT_NE(contents.find("still-open"), std::string::npos);
  EXPECT_NE(contents.find("\"v\":7"), std::string::npos);
}

TEST(ChromeExportTest, EmptySessionStillParses) {
  TraceSession session;
  const std::string json = ToChromeTraceJson(session);
  EXPECT_TRUE(test::JsonChecker::IsValid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace scwsc
