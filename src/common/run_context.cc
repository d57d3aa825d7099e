#include "src/common/run_context.h"

#include <string>

namespace scwsc {

const char* TripKindToString(TripKind kind) {
  switch (kind) {
    case TripKind::kNone:
      return "none";
    case TripKind::kDeadline:
      return "deadline";
    case TripKind::kCancel:
      return "cancel";
    case TripKind::kBudget:
      return "budget";
  }
  return "unknown";
}

Status TripStatus(TripKind kind, const char* what) {
  std::string msg(what);
  switch (kind) {
    case TripKind::kDeadline:
      return Status::DeadlineExceeded(msg + ": deadline exceeded");
    case TripKind::kCancel:
      return Status::Cancelled(msg + ": cancelled");
    case TripKind::kBudget:
      return Status::ResourceExhausted(msg + ": work budget exhausted");
    case TripKind::kNone:
      break;
  }
  return Status::Internal(msg + ": TripStatus called with TripKind::kNone");
}

const RunContext& RunContext::Unlimited() {
  static const RunContext* const kUnlimited = new RunContext();
  return *kUnlimited;
}

void RunContext::SetDeadlineAt(Clock::time_point when) {
  deadline_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          when.time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  has_deadline_.store(true, std::memory_order_relaxed);
  limited_.store(true, std::memory_order_release);
}

void RunContext::SetRecountBudget(std::uint64_t n) {
  recounts_left_.store(
      n >= static_cast<std::uint64_t>(kNoBudget)
          ? kNoBudget
          : static_cast<std::int64_t>(n),
      std::memory_order_relaxed);
  limited_.store(true, std::memory_order_release);
}

void RunContext::SetNodeBudget(std::uint64_t n) {
  nodes_left_.store(n >= static_cast<std::uint64_t>(kNoBudget)
                        ? kNoBudget
                        : static_cast<std::int64_t>(n),
                    std::memory_order_relaxed);
  limited_.store(true, std::memory_order_release);
}

void RunContext::FailAfter(std::uint64_t n) {
  fail_after_.store(n >= static_cast<std::uint64_t>(kNoFail)
                        ? kNoFail
                        : static_cast<std::int64_t>(n),
                    std::memory_order_relaxed);
  limited_.store(true, std::memory_order_release);
}

void RunContext::RequestCancel() {
  // Plain lock-free stores only: callable from a signal handler.
  cancel_.store(true, std::memory_order_relaxed);
  limited_.store(true, std::memory_order_release);
}

TripKind RunContext::Trip(TripKind kind) const {
  unsigned char expected = 0;
  unsigned char desired = static_cast<unsigned char>(kind);
  if (tripped_.compare_exchange_strong(expected, desired,
                                       std::memory_order_acq_rel)) {
    return kind;
  }
  return static_cast<TripKind>(expected);  // an earlier trip won the race
}

TripKind RunContext::Evaluate() const {
  // Fault injection first so tests can deterministically pre-empt real
  // sources; it counts Check() calls through checks_.
  const std::int64_t fail_after = fail_after_.load(std::memory_order_relaxed);
  if (fail_after != kNoFail &&
      checks_.fetch_add(1, std::memory_order_relaxed) >= fail_after) {
    return Trip(TripKind::kCancel);
  }
  if (cancel_.load(std::memory_order_relaxed)) {
    return Trip(TripKind::kCancel);
  }
  if (has_deadline_.load(std::memory_order_relaxed)) {
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    if (now_ns >= deadline_ns_.load(std::memory_order_relaxed)) {
      return Trip(TripKind::kDeadline);
    }
  }
  return TripKind::kNone;
}

TripKind RunContext::Check() const {
  if (!limited()) return TripKind::kNone;
  const TripKind prior = tripped();
  if (prior != TripKind::kNone) return prior;
  return Evaluate();
}

TripKind RunContext::ChargeRecounts(std::uint64_t n) const {
  if (!limited()) return TripKind::kNone;
  const TripKind prior = tripped();
  if (prior != TripKind::kNone) return prior;
  if (recounts_left_.load(std::memory_order_relaxed) != kNoBudget) {
    const std::int64_t left = recounts_left_.fetch_sub(
        static_cast<std::int64_t>(n), std::memory_order_relaxed);
    if (left < static_cast<std::int64_t>(n)) {
      return Trip(TripKind::kBudget);
    }
  }
  return Evaluate();
}

TripKind RunContext::ChargeNodes(std::uint64_t n) const {
  if (!limited()) return TripKind::kNone;
  const TripKind prior = tripped();
  if (prior != TripKind::kNone) return prior;
  if (nodes_left_.load(std::memory_order_relaxed) != kNoBudget) {
    const std::int64_t left = nodes_left_.fetch_sub(
        static_cast<std::int64_t>(n), std::memory_order_relaxed);
    if (left < static_cast<std::int64_t>(n)) {
      return Trip(TripKind::kBudget);
    }
  }
  return Evaluate();
}

}  // namespace scwsc
