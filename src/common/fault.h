// FaultPlan: seedable, process-wide fault injection for chaos testing.
//
// RunContext's test-only hook (FailAfter) exercises timeout paths
// deterministically inside one solver. A FaultPlan does the same for the
// serve path: it names a set of *registered injection points*, each armed
// with an independent probability, and every decision is a pure
// function of (seed, point, per-point draw index). Replaying the same plan
// against the same single-threaded call sequence reproduces the same fault
// sequence bit-for-bit; under concurrency the per-point *set* of fired
// draws is still deterministic even though threads race for draw indices.
//
// Each point models a failure the runtime can really produce:
//   solver_error          a solver returns an internal error;
//   solver_throw          a solver throws (std::bad_alloc included);
//   solver_delay          a solver stalls before its first context check;
//   result_cache_corrupt  a stored result no longer matches its checksum.
//
// Cost when disabled: no plan is installed by default, and every site
// guards with FaultFires(), whose fast path is a single atomic load of a
// null pointer.
//
// Ownership: Install() does NOT take ownership — the installer keeps the
// plan alive until Uninstall(). ScopedFaultPlan is the RAII form tests, the
// CLI batch front end and the chaos bench use.

#ifndef SCWSC_COMMON_FAULT_H_
#define SCWSC_COMMON_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/result.h"

namespace scwsc {

/// Every place the library can be told to misbehave. Keep in sync with
/// FaultPointToString / FaultPointFromString (the batch JSON spelling).
enum class FaultPoint : int {
  kSolverError = 0,      // registry solve replaced by Status::Internal
  kSolverThrow,          // solver call site throws (scheduler must contain it)
  kSolverDelay,          // solver call site sleeps solver_delay_ms first
  kResultCacheCorrupt,   // a freshly inserted result entry is bit-flipped
  kCount,                // sentinel; not a point
};

constexpr int kNumFaultPoints = static_cast<int>(FaultPoint::kCount);

/// Stable lowercase name, the spelling the batch JSON `"faults"` object
/// uses ("solver_error", "result_cache_corrupt", ...).
const char* FaultPointToString(FaultPoint point);

/// Inverse of FaultPointToString; InvalidArgument naming the accepted
/// spellings on an unknown name.
Result<FaultPoint> FaultPointFromString(const std::string& name);

class FaultPlan {
 public:
  /// All probabilities start at zero: an installed-but-empty plan injects
  /// nothing.
  explicit FaultPlan(std::uint64_t seed = 0);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Arms `point` to fire with probability `p` in [0, 1] per draw.
  void Arm(FaultPoint point, double p);

  /// Milliseconds a fired kSolverDelay sleeps (default 5).
  void set_solver_delay_ms(std::uint64_t ms) {
    solver_delay_ms_.store(ms, std::memory_order_relaxed);
  }
  std::uint64_t solver_delay_ms() const {
    return solver_delay_ms_.load(std::memory_order_relaxed);
  }

  std::uint64_t seed() const { return seed_; }
  double probability(FaultPoint point) const;

  /// One fault decision: hash(seed, point, draw index) < threshold. Each
  /// call consumes one draw index for `point` and counts draws/fires.
  bool ShouldFire(FaultPoint point);

  /// Draws / fires recorded so far for `point` (for reports and gates).
  std::uint64_t draws(FaultPoint point) const;
  std::uint64_t fires(FaultPoint point) const;

  // --- process-wide installation ------------------------------------------

  /// The installed plan, or nullptr (the default). One atomic load.
  static FaultPlan* Active() { return active_.load(std::memory_order_acquire); }

  /// Installs `plan` process-wide (nullptr uninstalls). The caller keeps
  /// ownership and must keep the plan alive until it is uninstalled.
  static void Install(FaultPlan* plan);
  static void Uninstall() { Install(nullptr); }

 private:
  struct PointState {
    std::atomic<std::uint64_t> threshold{0};  // fire iff hash < threshold
    std::atomic<std::uint64_t> draws{0};
    std::atomic<std::uint64_t> fires{0};
  };

  const std::uint64_t seed_;
  std::array<PointState, kNumFaultPoints> points_;
  std::atomic<std::uint64_t> solver_delay_ms_{5};

  static std::atomic<FaultPlan*> active_;
};

/// True when an installed plan fires `point` right now. The one-liner every
/// injection site guards with.
inline bool FaultFires(FaultPoint point) {
  FaultPlan* plan = FaultPlan::Active();
  return plan != nullptr && plan->ShouldFire(point);
}

/// RAII installation: installs the owned plan on construction, uninstalls
/// on destruction. Only one plan may be installed at a time (checked).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(std::uint64_t seed = 0) : plan_(seed) {
    FaultPlan::Install(&plan_);
  }
  ~ScopedFaultPlan() { FaultPlan::Uninstall(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  FaultPlan& plan() { return plan_; }

 private:
  FaultPlan plan_;
};

}  // namespace scwsc

#endif  // SCWSC_COMMON_FAULT_H_
