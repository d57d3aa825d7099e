#include "src/serve/resilience.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace scwsc {
namespace serve {
namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

// --- retries ---------------------------------------------------------------

double NextBackoffMs(const RetryPolicy& policy, double prev_ms,
                     std::uint64_t draw) {
  const double lo = std::max(policy.initial_backoff_ms, 0.0);
  const double hi = std::max(lo, 3.0 * prev_ms);
  // hash -> [0, 1): 53 mantissa bits of the mixed draw.
  const double unit =
      static_cast<double>(SplitMix64(draw) >> 11) *
      (1.0 / 9007199254740992.0 /* 2^53 */);
  const double wait = lo + unit * (hi - lo);
  return std::min(wait, std::max(policy.max_backoff_ms, 0.0));
}

bool IsRetryableFailure(const Status& status) {
  if (status.ok()) return false;
  return status.code() == StatusCode::kInternal || status.IsUnavailable();
}

// --- retry budget ----------------------------------------------------------

RetryBudget::RetryBudget(RetryBudgetOptions options) : options_(options) {}

bool RetryBudget::TryAcquire(const std::string& label,
                             std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = buckets_.try_emplace(label);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = options_.burst;  // new labels start with a full bucket
    bucket.refilled_at = now;
  } else {
    const double elapsed = SecondsBetween(bucket.refilled_at, now);
    if (elapsed > 0.0) {
      bucket.tokens = std::min(options_.burst,
                               bucket.tokens +
                                   elapsed * options_.tokens_per_second);
      bucket.refilled_at = now;
    }
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

double RetryBudget::available(const std::string& label,
                              std::chrono::steady_clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(label);
  if (it == buckets_.end()) return options_.burst;
  const double elapsed = SecondsBetween(it->second.refilled_at, now);
  return std::min(options_.burst,
                  it->second.tokens +
                      std::max(elapsed, 0.0) * options_.tokens_per_second);
}

// --- circuit breaker -------------------------------------------------------

const char* CircuitBreaker::StateToString(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options,
                               obs::MetricRegistry* metrics,
                               std::atomic<long>* shared_open_count,
                               obs::TraceSession* history)
    : options_(options),
      metrics_(metrics),
      history_(history),
      open_count_(shared_open_count != nullptr ? shared_open_count
                                               : &own_open_count_) {}

void CircuitBreaker::SetOpenCountedLocked(bool open) {
  if (open == counted_open_) return;
  counted_open_ = open;
  const long count = open ? open_count_->fetch_add(1) + 1
                          : open_count_->fetch_sub(1) - 1;
  if (metrics_ != nullptr) {
    metrics_->gauge("serve.breaker.open").Set(static_cast<double>(count));
  }
}

void CircuitBreaker::OpenLocked(std::chrono::steady_clock::time_point now) {
  state_ = State::kOpen;
  opened_at_ = now;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  SetOpenCountedLocked(true);
  if (metrics_ != nullptr) {
    metrics_->counter("serve.breaker.opened").Increment();
  }
  if (history_ != nullptr) history_->AddEvent("breaker/opened");
}

Status CircuitBreaker::Admit(std::chrono::steady_clock::time_point now) {
  if (!options_.enabled) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kOpen) return Status::OK();
  const double waited = SecondsBetween(opened_at_, now);
  if (waited < options_.open_seconds) {
    if (metrics_ != nullptr) {
      metrics_->counter("serve.breaker.rejected").Increment();
    }
    const double retry_after = options_.open_seconds - waited;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", retry_after);
    // The hint carries the same retry-after in machine-readable form, so
    // wire frontends fill the error envelope's retry_after_ms without
    // parsing the message.
    return Status::Unavailable("circuit breaker is open; retry after " +
                               std::string(buffer) + "s")
        .WithPayload(RetryAfterHint{retry_after * 1000.0});
  }
  state_ = State::kHalfOpen;
  half_open_successes_ = 0;
  SetOpenCountedLocked(false);
  if (metrics_ != nullptr) {
    metrics_->counter("serve.breaker.half_opened").Increment();
  }
  if (history_ != nullptr) history_->AddEvent("breaker/half_open");
  return Status::OK();
}

void CircuitBreaker::RecordSuccess() {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    if (++half_open_successes_ >= options_.half_open_successes) {
      state_ = State::kClosed;
      half_open_successes_ = 0;
      if (metrics_ != nullptr) {
        metrics_->counter("serve.breaker.closed").Increment();
      }
      if (history_ != nullptr) history_->AddEvent("breaker/closed");
    }
  }
}

void CircuitBreaker::RecordFailure(std::chrono::steady_clock::time_point now) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    OpenLocked(now);  // a failed probe re-opens immediately
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= options_.failure_threshold) {
    OpenLocked(now);
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

BreakerBank::BreakerBank(CircuitBreakerOptions options,
                         obs::MetricRegistry* metrics,
                         obs::TraceSession* history)
    : options_(options), metrics_(metrics), history_(history) {}

CircuitBreaker& BreakerBank::ForSolver(const std::string& canonical_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(canonical_name);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(canonical_name,
                      std::make_unique<CircuitBreaker>(options_, metrics_,
                                                       &open_count_, history_))
             .first;
  }
  return *it->second;
}

// --- degradation -----------------------------------------------------------

DegradationLadder DegradationLadder::Default() {
  DegradationLadder ladder;
  // Expensive searchers step down to the paper's greedy CWSC; the greedy
  // families step down to the cheapest registered baseline. Names are the
  // canonical registry spellings.
  ladder.AddRung("exact", "cwsc");
  ladder.AddRung("lp-rounding", "cwsc");
  ladder.AddRung("opt-cwsc", "cwsc");
  ladder.AddRung("opt-cmc", "cmc");
  ladder.AddRung("hcwsc", "cwsc");
  ladder.AddRung("hcmc", "cmc");
  ladder.AddRung("cwsc-literal", "cwsc");
  ladder.AddRung("cmc-literal", "cmc");
  ladder.AddRung("cwsc", "greedy-wsc");
  ladder.AddRung("cmc", "greedy-max-coverage");
  return ladder;
}

DegradationLadder& DegradationLadder::AddRung(std::string from,
                                              std::string to) {
  rungs_[std::move(from)] = std::move(to);
  return *this;
}

const std::string* DegradationLadder::FallbackFor(
    const std::string& canonical_name) const {
  auto it = rungs_.find(canonical_name);
  return it == rungs_.end() ? nullptr : &it->second;
}

}  // namespace serve
}  // namespace scwsc
