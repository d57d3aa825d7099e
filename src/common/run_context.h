// RunContext: a cheap, thread-safe execution context threaded through every
// solver so long-running work can be bounded and interrupted cooperatively.
//
// A RunContext carries four independent interruption sources:
//   - a steady-clock deadline (SetDeadline / SetDeadlineAt),
//   - a cooperative cancellation token (RequestCancel, e.g. from a signal
//     handler or another thread),
//   - work budgets: an element-recount budget charged by the benefit engine
//     and a node-expansion budget charged by search/enumeration loops,
//   - test-only fault injection (FailAfter) so timeout paths are
//     deterministically exercisable without real clocks.
//
// Solvers call Check() at loop heads (and ChargeRecounts / ChargeNodes where
// they do metered work) and, on a non-kNone result, stop and return their
// best-so-far solution tagged with the matching Status (see TripStatus).
// The first trip is sticky: once any source fires, every subsequent Check()
// on that context reports the same TripKind, so a multi-threaded scan that
// observes the trip at different points converges on one verdict.
//
// A default-constructed RunContext is unlimited: limited() is false and the
// fast path is a single relaxed atomic load, so threading a context through
// hot loops costs nothing measurable when no limits are set. All members are
// lock-free atomics; RequestCancel() is async-signal-safe.

#ifndef SCWSC_COMMON_RUN_CONTEXT_H_
#define SCWSC_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "src/common/status.h"

namespace scwsc {

/// Which interruption source fired first. Sticky per context.
enum class TripKind : unsigned char {
  kNone = 0,
  kDeadline = 1,  // steady-clock deadline passed
  kCancel = 2,    // RequestCancel() was called
  kBudget = 3,    // a work budget (recounts or node expansions) ran out
};

/// Stable name for a trip kind ("deadline", "cancel", ...).
const char* TripKindToString(TripKind kind);

/// Maps a trip to the Status a solver should return: kDeadline ->
/// DeadlineExceeded, kCancel -> Cancelled, kBudget -> ResourceExhausted.
/// `what` names the interrupted operation for the message ("cwsc", "exact").
Status TripStatus(TripKind kind, const char* what);

class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited context: never trips (until limits are set or RequestCancel
  /// is called).
  RunContext() = default;

  // Not copyable/movable: solvers hold `const RunContext*` and the owner
  // keeps it alive for the duration of the call; atomics pin the address.
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Process-wide shared unlimited context (the default for every solver).
  static const RunContext& Unlimited();

  // --- setup (call before handing the context to a solver) ---------------

  /// Trips with kDeadline once `Clock::now()` passes now + duration.
  template <class Rep, class Period>
  void SetDeadline(std::chrono::duration<Rep, Period> duration) {
    SetDeadlineAt(Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(duration));
  }
  void SetDeadlineAt(Clock::time_point when);

  /// Trips with kBudget after `n` engine element-recounts (one unit per
  /// element visited while recomputing a set's marginal benefit).
  void SetRecountBudget(std::uint64_t n);

  /// Trips with kBudget after `n` node expansions (branch-and-bound nodes,
  /// lattice children, enumerated patterns).
  void SetNodeBudget(std::uint64_t n);

  /// Test-only: trips with kCancel on the (n+1)-th Check() call. n = 0
  /// trips the very first check, simulating cancellation before any work.
  void FailAfter(std::uint64_t n);

  // --- runtime (safe from any thread) ------------------------------------

  /// Requests cooperative cancellation. Async-signal-safe (plain atomic
  /// stores), so it may be called from a SIGINT handler.
  void RequestCancel();

  /// True once any limit is configured (or cancel requested). Unlimited
  /// contexts stay on this single-load fast path forever.
  bool limited() const { return limited_.load(std::memory_order_relaxed); }

  /// Evaluates all interruption sources; returns the sticky first trip, or
  /// kNone. Cheap when !limited().
  TripKind Check() const;

  /// Charges `n` element recounts against the recount budget, then behaves
  /// like Check(). Call from metered engine loops.
  TripKind ChargeRecounts(std::uint64_t n) const;

  /// Charges `n` node expansions against the node budget, then behaves like
  /// Check(). Call from search / enumeration loops.
  TripKind ChargeNodes(std::uint64_t n) const;

  /// The sticky trip recorded so far, without re-evaluating any source.
  TripKind tripped() const {
    return static_cast<TripKind>(tripped_.load(std::memory_order_acquire));
  }

 private:
  static constexpr std::int64_t kNoBudget =
      std::numeric_limits<std::int64_t>::max();

  // Records `kind` as the first trip if none is set yet; returns the winner.
  TripKind Trip(TripKind kind) const;
  TripKind Evaluate() const;

  std::atomic<bool> limited_{false};
  std::atomic<bool> cancel_{false};
  std::atomic<bool> has_deadline_{false};
  // Deadline as nanoseconds since the steady clock's epoch (time_point is
  // not atomic-friendly).
  std::atomic<std::int64_t> deadline_ns_{0};
  // Remaining budgets; fetch_sub below zero means "tripped". kNoBudget means
  // the budget is not configured.
  mutable std::atomic<std::int64_t> recounts_left_{kNoBudget};
  mutable std::atomic<std::int64_t> nodes_left_{kNoBudget};
  // Fault injection: checks_ counts Check() calls; fail_after_ is the count
  // after which checks trip (kNoFail = disabled).
  static constexpr std::int64_t kNoFail =
      std::numeric_limits<std::int64_t>::max();
  mutable std::atomic<std::int64_t> checks_{0};
  std::atomic<std::int64_t> fail_after_{kNoFail};
  // Sticky first trip (TripKind as raw byte); 0 = none.
  mutable std::atomic<unsigned char> tripped_{0};
};

}  // namespace scwsc

#endif  // SCWSC_COMMON_RUN_CONTEXT_H_
