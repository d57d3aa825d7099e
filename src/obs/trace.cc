#include "src/obs/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>

namespace scwsc {
namespace obs {
namespace {

/// One open span on the calling thread. The stack is thread-local and keyed
/// by session, so concurrent sessions and pool threads never contend on it.
struct OpenFrame {
  const TraceSession* session;
  SpanId id;
};

thread_local std::vector<OpenFrame> t_open_spans;

std::atomic<std::uint64_t> g_next_session_uid{1};

/// A SpanId is (opening thread's log index + 1) * 2^40 plus that log's
/// sequence number, so ids stay session-unique while each thread opens
/// fewer than 2^40 spans, with no counter shared between threads.
SpanId MakeSpanId(std::uint32_t thread, std::uint64_t sequence) {
  return ((static_cast<SpanId>(thread) + 1) << 40) + sequence;
}

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct TraceSession::ThreadLog {
  ThreadLog(std::thread::id owner_id, std::uint32_t index)
      : owner(owner_id), thread(index) {}

  /// Moves open span `id` into the closed log. False when it is not open
  /// here. Requires mu.
  bool Close(SpanId id, std::int64_t end_ns, double value,
             std::size_t max_records) {
    // Newest first: spans close in roughly the reverse of their open order.
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if (it->id != id) continue;
      SpanRecord& slot = NextSlot(max_records);
      slot.id = id;
      slot.parent = it->parent;
      slot.name.swap(it->name);
      slot.thread = it->thread;
      slot.start_ns = it->start_ns;
      slot.end_ns = end_ns;
      slot.value = value;
      if (&*it != &open.back()) *it = std::move(open.back());
      open.pop_back();
      return true;
    }
    return false;
  }

  /// The calling thread's innermost span of `session` that is still open,
  /// or kNoSpan. Frames of spans closed on another thread (a moved Span)
  /// are dropped on the way, so a closed span is never a parent. Called
  /// from the log's owner thread; requires mu.
  SpanId InnermostOpen(const TraceSession* session) {
    for (std::size_t i = t_open_spans.size(); i-- > 0;) {
      const OpenFrame frame = t_open_spans[i];
      if (frame.session != session) continue;
      const bool still_open =
          std::any_of(open.begin(), open.end(), [&](const SpanRecord& r) {
            return r.id == frame.id;
          });
      if (still_open) return frame.id;
      t_open_spans.erase(t_open_spans.begin() +
                         static_cast<std::ptrdiff_t>(i));
    }
    return kNoSpan;
  }

  /// Appends an event on `span` at `ts_ns`. Requires mu.
  void AppendEvent(SpanId span, std::string_view name, std::int64_t ts_ns,
                   double value, std::size_t max_records) {
    SpanRecord& slot = NextSlot(max_records);
    slot.id = kNoSpan;
    slot.parent = span;
    slot.name.assign(name.data(), name.size());
    slot.thread = thread;
    slot.start_ns = ts_ns;
    slot.end_ns = ts_ns;
    slot.value = value;
  }

  /// The slot the next closed record goes into: a new entry, or the oldest
  /// one once a bounded log is full (overwritten in place, which keeps its
  /// name's heap buffer for reuse). Requires mu.
  SpanRecord& NextSlot(std::size_t max_records) {
    if (max_records == 0 || closed.size() < max_records) {
      return closed.emplace_back();
    }
    SpanRecord& slot = closed[oldest];
    oldest = oldest + 1 == closed.size() ? 0 : oldest + 1;
    return slot;
  }

  const std::thread::id owner;
  const std::uint32_t thread;  // index in logs_: the exported track id
  std::mutex mu;  // the owner's appends vs readers and cross-thread ends
  std::uint64_t next_sequence = 1;
  std::vector<SpanRecord> open;  // open spans, never dropped
  // Closed spans and events in closing order; a ring once a bounded log is
  // full. An event is stored with id kNoSpan, its span in .parent and its
  // timestamp in .start_ns.
  std::vector<SpanRecord> closed;
  std::size_t oldest = 0;  // index of the oldest closed entry
};

TraceSession::TraceSession(std::size_t max_records)
    : uid_(g_next_session_uid.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(SteadyNowNs()),
      max_records_(max_records) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadLog& TraceSession::LogForThisThread() {
  // A few (session uid, log) pairs per thread. Uids are never reused, so an
  // entry left by a destroyed session never matches a live one and its
  // pointer is never followed.
  struct Cached {
    std::uint64_t uid = 0;
    ThreadLog* log = nullptr;
  };
  thread_local std::array<Cached, 4> cache;
  thread_local std::size_t next_victim = 0;
  for (const Cached& c : cache) {
    if (c.uid == uid_) return *c.log;
  }
  ThreadLog* log = nullptr;
  {
    std::lock_guard<std::mutex> lock(logs_mu_);
    const std::thread::id me = std::this_thread::get_id();
    for (const auto& existing : logs_) {
      if (existing->owner == me) log = existing.get();
    }
    if (log == nullptr) {
      logs_.push_back(std::make_unique<ThreadLog>(
          me, static_cast<std::uint32_t>(logs_.size())));
      log = logs_.back().get();
    }
  }
  cache[next_victim] = Cached{uid_, log};
  next_victim = (next_victim + 1) % cache.size();
  return *log;
}

std::vector<TraceSession::ThreadLog*> TraceSession::Logs() const {
  std::lock_guard<std::mutex> lock(logs_mu_);
  std::vector<ThreadLog*> out;
  out.reserve(logs_.size());
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

SpanId TraceSession::BeginSpan(std::string_view name) {
  const std::int64_t now = SteadyNowNs() - epoch_ns_;
  ThreadLog& log = LogForThisThread();
  SpanId id;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    const SpanId parent = log.InnermostOpen(this);
    id = MakeSpanId(log.thread, log.next_sequence++);
    SpanRecord& record = log.open.emplace_back();
    record.id = id;
    record.parent = parent;
    record.name.assign(name.data(), name.size());
    record.thread = log.thread;
    record.start_ns = now;
  }
  t_open_spans.push_back(OpenFrame{this, id});
  return id;
}

void TraceSession::EndSpan(SpanId id, double value) {
  if (id == kNoSpan) return;
  const std::int64_t now = SteadyNowNs() - epoch_ns_;
  ThreadLog& own = LogForThisThread();
  bool closed;
  {
    std::lock_guard<std::mutex> lock(own.mu);
    closed = own.Close(id, now, value, max_records_);
  }
  if (!closed) {
    // A span closed on another thread than the one that opened it (a moved
    // Span) lives in its opener's log.
    for (ThreadLog* log : Logs()) {
      if (log == &own) continue;
      std::lock_guard<std::mutex> lock(log->mu);
      if (log->Close(id, now, value, max_records_)) break;
    }
  }
  // Pop this span's frame; tolerate out-of-order ends (a moved Span closed
  // on another thread leaves its frame on the opener's stack, where
  // InnermostOpen drops it).
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->session == this && it->id == id) {
      t_open_spans.erase(std::next(it).base());
      break;
    }
  }
}

void TraceSession::AddEvent(std::string_view name, double value) {
  const std::int64_t now = SteadyNowNs() - epoch_ns_;
  ThreadLog& log = LogForThisThread();
  std::lock_guard<std::mutex> lock(log.mu);
  log.AppendEvent(log.InnermostOpen(this), name, now, value, max_records_);
}

void TraceSession::AddEventOn(SpanId span, std::string_view name,
                              double value) {
  const std::int64_t now = SteadyNowNs() - epoch_ns_;
  ThreadLog& log = LogForThisThread();
  std::lock_guard<std::mutex> lock(log.mu);
  log.AppendEvent(span, name, now, value, max_records_);
}

std::vector<SpanRecord> TraceSession::spans() const {
  std::vector<SpanRecord> out;
  for (ThreadLog* log : Logs()) {
    std::lock_guard<std::mutex> lock(log->mu);
    for (const SpanRecord& r : log->closed) {
      if (r.id != kNoSpan) out.push_back(r);
    }
    out.insert(out.end(), log->open.begin(), log->open.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

std::vector<EventRecord> TraceSession::events() const {
  std::vector<EventRecord> out;
  for (ThreadLog* log : Logs()) {
    std::lock_guard<std::mutex> lock(log->mu);
    const std::size_t n = log->closed.size();
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRecord& r = log->closed[(log->oldest + i) % n];
      if (r.id != kNoSpan) continue;
      EventRecord& e = out.emplace_back();
      e.span = r.parent;
      e.name = r.name;
      e.thread = r.thread;
      e.ts_ns = r.start_ns;
      e.value = r.value;
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

double TraceSession::SpanSeconds(std::string_view name) const {
  double total = 0.0;
  for (ThreadLog* log : Logs()) {
    std::lock_guard<std::mutex> lock(log->mu);
    for (const SpanRecord& r : log->closed) {
      if (r.id != kNoSpan && r.name == name) total += r.seconds();
    }
  }
  return total;
}

std::vector<std::pair<std::string, double>> TraceSession::PhaseTotals() const {
  std::vector<std::pair<std::string, double>> out;
  for (ThreadLog* log : Logs()) {
    std::lock_guard<std::mutex> lock(log->mu);
    for (const SpanRecord& r : log->closed) {
      if (r.id == kNoSpan) continue;
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& kv) {
        return kv.first == r.name;
      });
      if (it == out.end()) {
        out.emplace_back(r.name, r.seconds());
      } else {
        it->second += r.seconds();
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace obs
}  // namespace scwsc
