// Recovery policies for the serve path: retries with decorrelated-jitter
// backoff, per-label retry budgets, per-solver circuit breakers, and a
// degradation ladder mapping solvers onto cheaper registered fallbacks.
//
// These are *policies*, not mechanisms: the SolveScheduler owns the attempt
// loop and the breaker bank; this header owns the decisions (should this
// failure be retried? how long to back off? is this solver's breaker open?
// what is the cheaper fallback?). Keeping the decisions pure and
// clock-explicit makes every one of them unit-testable without a
// scheduler, a thread pool or a real clock.
//
// Defaults are chosen so a default-constructed ResilienceOptions is inert:
// max_attempts = 1 (no retries), breaker disabled, ladder empty. A
// scheduler built with defaults behaves bit-identically to one that
// predates this subsystem.

#ifndef SCWSC_SERVE_RESILIENCE_H_
#define SCWSC_SERVE_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace serve {

// --- retries ---------------------------------------------------------------

/// When and how the scheduler re-runs a failed solve attempt.
struct RetryPolicy {
  /// Total attempts including the first; 1 = retries off (the default, so a
  /// plain scheduler never re-runs work).
  int max_attempts = 1;
  /// Backoff bounds in milliseconds. The first retry waits
  /// `initial_backoff_ms`; later waits use decorrelated jitter:
  /// uniform(initial, 3 * previous), capped at `max_backoff_ms`.
  double initial_backoff_ms = 1.0;
  double max_backoff_ms = 250.0;

  bool enabled() const { return max_attempts > 1; }
};

/// The next backoff wait in milliseconds, decorrelated-jitter style:
/// uniform(initial, 3 * prev_ms) capped at max, where "uniform" is decided
/// by a hash of `draw` — a pure function, so tests and replays get the same
/// wait sequence from the same draws. `prev_ms` is 0.0 before the first
/// retry.
double NextBackoffMs(const RetryPolicy& policy, double prev_ms,
                     std::uint64_t draw);

/// True for failures a retry might fix: Internal (transient solver / fault
/// injection breakage) and Unavailable (open breaker). Interruption
/// statuses (deadline / cancel / budget) carry partial results and are
/// never retried; argument/capability errors would fail identically again.
bool IsRetryableFailure(const Status& status);

// --- retry budget ----------------------------------------------------------

/// Token-bucket bound on retries per label, so one failing tenant's retry
/// storm cannot multiply load for everyone. Each retry consumes one token;
/// tokens refill continuously at `tokens_per_second` up to `burst`.
struct RetryBudgetOptions {
  double tokens_per_second = 10.0;
  double burst = 20.0;
};

class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetOptions options = {});

  /// Consumes one token from `label`'s bucket (created full on first use)
  /// at time `now`; false = budget exhausted, the retry must not happen.
  bool TryAcquire(const std::string& label,
                  std::chrono::steady_clock::time_point now =
                      std::chrono::steady_clock::now());

  /// Tokens currently available to `label` (burst for unseen labels).
  double available(const std::string& label,
                   std::chrono::steady_clock::time_point now =
                       std::chrono::steady_clock::now()) const;

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point refilled_at;
  };

  const RetryBudgetOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Bucket> buckets_;
};

// --- circuit breaker -------------------------------------------------------

struct CircuitBreakerOptions {
  /// Disabled by default: Admit always passes, Record* are no-ops.
  bool enabled = false;
  /// Consecutive breaker-relevant failures (Internal / deadline timeout)
  /// that open the breaker.
  int failure_threshold = 5;
  /// Seconds the breaker stays open before letting probes through.
  double open_seconds = 1.0;
  /// Consecutive half-open successes that close the breaker again.
  int half_open_successes = 1;
};

/// Classic closed -> open -> half-open breaker guarding one solver.
///
///   closed:    all work admitted; `failure_threshold` consecutive
///              failures -> open.
///   open:      Admit() returns Unavailable naming the seconds until the
///              next probe; after `open_seconds` the next Admit moves to
///              half-open and passes.
///   half-open: work admitted as probes; `half_open_successes` consecutive
///              successes -> closed, any failure -> open again.
///
/// Transitions count into serve.breaker.{opened,half_opened,closed} and
/// open-state rejections into serve.breaker.rejected when a registry is
/// attached. The gauge serve.breaker.open tracks how many breakers sharing
/// `shared_open_count` (the bank's counter; the breaker's own when
/// standalone) are currently open — the SLO rule `breaker_open==0` reads
/// it. With a `history` session, each transition is also recorded there as
/// a breaker/{opened,half_open,closed} event on the calling thread's open
/// span (a scheduler worker's serve.run).
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  static const char* StateToString(State state);

  explicit CircuitBreaker(CircuitBreakerOptions options,
                          obs::MetricRegistry* metrics = nullptr,
                          std::atomic<long>* shared_open_count = nullptr,
                          obs::TraceSession* history = nullptr);

  /// OK to run now, or Unavailable ("retry after N.NNNs") while open.
  Status Admit(std::chrono::steady_clock::time_point now =
                   std::chrono::steady_clock::now());

  void RecordSuccess();
  void RecordFailure(std::chrono::steady_clock::time_point now =
                         std::chrono::steady_clock::now());

  State state() const;

 private:
  void OpenLocked(std::chrono::steady_clock::time_point now);
  /// Flip this breaker's membership in the shared open count and republish
  /// the serve.breaker.open gauge. Callers hold mu_.
  void SetOpenCountedLocked(bool open);

  const CircuitBreakerOptions options_;
  obs::MetricRegistry* const metrics_;
  obs::TraceSession* const history_;
  std::atomic<long> own_open_count_{0};  // used when no shared counter
  std::atomic<long>* const open_count_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  bool counted_open_ = false;  // this breaker's +1 in *open_count_
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
};

/// Lazily created breaker per canonical solver name, shared scheduler-wide
/// so every job against a failing solver sees the same state. References
/// stay valid for the bank's lifetime.
class BreakerBank {
 public:
  BreakerBank(CircuitBreakerOptions options,
              obs::MetricRegistry* metrics = nullptr,
              obs::TraceSession* history = nullptr);

  CircuitBreaker& ForSolver(const std::string& canonical_name);

 private:
  const CircuitBreakerOptions options_;
  obs::MetricRegistry* const metrics_;
  obs::TraceSession* const history_;
  std::atomic<long> open_count_{0};  // shared by every breaker in the bank
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
};

// --- degradation -----------------------------------------------------------

/// Maps a solver onto the next-cheaper registered solver to substitute when
/// the requested one is unavailable (open breaker). Rungs chain:
/// exact -> cwsc -> greedy-wsc, so a walk from "exact" can degrade twice if
/// both upper rungs are refused. Empty by default — no substitution ever
/// happens unless a ladder is configured.
class DegradationLadder {
 public:
  DegradationLadder() = default;

  /// The stock ladder over built-in solvers: expensive searchers fall back
  /// to the paper's CWSC greedy, which falls back to the cheapest baseline.
  static DegradationLadder Default();

  DegradationLadder& AddRung(std::string from, std::string to);

  /// The configured fallback for `canonical_name`, or nullptr.
  const std::string* FallbackFor(const std::string& canonical_name) const;

 private:
  std::map<std::string, std::string> rungs_;
};

// --- aggregate -------------------------------------------------------------

/// Everything the scheduler's recovery machinery is configured by. The
/// default value is inert (see file comment): no retries, no breaker, no
/// ladder — bit-identical serving to a scheduler without it.
struct ResilienceOptions {
  RetryPolicy retry;
  RetryBudgetOptions retry_budget;
  CircuitBreakerOptions breaker;
  DegradationLadder ladder;
};

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_RESILIENCE_H_
