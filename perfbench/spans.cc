#include "perfbench/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::size_t SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return kNoSpan;
  const double t0 = Now();
  const std::size_t parent = open_.empty() ? kNoSpan : open_.back();
  spans_.push_back(Span{name, parent, 0, t0, -1.0});
  open_.push_back(spans_.size() - 1);
  own_seconds_ += Now() - t0;
  return spans_.size() - 1;
}

void SpanRecorder::End(std::size_t id) {
  if (!enabled_ || id == kNoSpan) return;
  spans_[id].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::Add(const std::string& name, double start, double end,
                       std::uint64_t request) {
  if (!enabled_) return;
  const double t0 = Now();
  const std::size_t parent = open_.empty() ? kNoSpan : open_.back();
  spans_.push_back(Span{name, parent, request, start, end});
  own_seconds_ += Now() - t0;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoSpan && span.end >= span.start) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < span.start) continue;  // never closed
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      const double to = std::min(hi, span.end);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(hi, span.end));
    }
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += (span.end - span.start) - covered;
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < span.start) continue;
    // One track per request keeps overlapping wire requests readable.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"span\":%zu,\"parent\":%lld}}",
                 first ? "" : ",", span.name.c_str(),
                 span.name.substr(0, span.name.find('.')).c_str(),
                 span.start * 1e6, (span.end - span.start) * 1e6,
                 static_cast<unsigned long long>(span.request), i,
                 span.parent == kNoSpan ? -1LL
                                        : static_cast<long long>(span.parent));
    first = false;
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
