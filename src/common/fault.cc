#include "src/common/fault.h"

#include <limits>

#include "src/common/logging.h"

namespace scwsc {
namespace {

// splitmix64 (Steele et al.), the same mixer RunContext's probabilistic
// fault hook uses: cheap, well distributed, deterministic in its input.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t ProbabilityToThreshold(double p) {
  if (p >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  if (p <= 0.0) return 0;
  return static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
}

constexpr const char* kPointNames[kNumFaultPoints] = {
    "solver_error",         // kSolverError
    "solver_throw",         // kSolverThrow
    "solver_delay",         // kSolverDelay
    "result_cache_corrupt", // kResultCacheCorrupt
};

}  // namespace

std::atomic<FaultPlan*> FaultPlan::active_{nullptr};

const char* FaultPointToString(FaultPoint point) {
  const int index = static_cast<int>(point);
  if (index < 0 || index >= kNumFaultPoints) return "unknown";
  return kPointNames[index];
}

Result<FaultPoint> FaultPointFromString(const std::string& name) {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    if (name == kPointNames[i]) return static_cast<FaultPoint>(i);
  }
  std::string accepted;
  for (int i = 0; i < kNumFaultPoints; ++i) {
    if (!accepted.empty()) accepted += ", ";
    accepted += kPointNames[i];
  }
  return Status::InvalidArgument("unknown fault point '" + name +
                                 "'; accepted: " + accepted);
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed) {}

void FaultPlan::Arm(FaultPoint point, double p) {
  const int index = static_cast<int>(point);
  SCWSC_CHECK(index >= 0 && index < kNumFaultPoints,
              "FaultPlan::Arm: fault point out of range");
  points_[static_cast<std::size_t>(index)].threshold.store(
      ProbabilityToThreshold(p), std::memory_order_relaxed);
}

double FaultPlan::probability(FaultPoint point) const {
  const int index = static_cast<int>(point);
  if (index < 0 || index >= kNumFaultPoints) return 0.0;
  const std::uint64_t threshold =
      points_[static_cast<std::size_t>(index)].threshold.load(
          std::memory_order_relaxed);
  return static_cast<double>(threshold) / 18446744073709551616.0;
}

bool FaultPlan::ShouldFire(FaultPoint point) {
  const int index = static_cast<int>(point);
  if (index < 0 || index >= kNumFaultPoints) return false;
  PointState& state = points_[static_cast<std::size_t>(index)];
  const std::uint64_t threshold =
      state.threshold.load(std::memory_order_relaxed);
  if (threshold == 0) return false;  // disarmed points never count draws
  const std::uint64_t draw =
      state.draws.fetch_add(1, std::memory_order_relaxed);
  // Domain-separate points so arming one point never shifts another's
  // sequence: the decision stream for (seed, point) is fixed.
  const std::uint64_t h =
      SplitMix64(seed_ ^ (static_cast<std::uint64_t>(index) << 56) ^ draw);
  if (h < threshold) {
    state.fires.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::uint64_t FaultPlan::draws(FaultPoint point) const {
  const int index = static_cast<int>(point);
  if (index < 0 || index >= kNumFaultPoints) return 0;
  return points_[static_cast<std::size_t>(index)].draws.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultPlan::fires(FaultPoint point) const {
  const int index = static_cast<int>(point);
  if (index < 0 || index >= kNumFaultPoints) return 0;
  return points_[static_cast<std::size_t>(index)].fires.load(
      std::memory_order_relaxed);
}

void FaultPlan::Install(FaultPlan* plan) {
  if (plan != nullptr) {
    FaultPlan* expected = nullptr;
    SCWSC_CHECK(active_.compare_exchange_strong(expected, plan,
                                                std::memory_order_acq_rel),
                "FaultPlan::Install: another plan is already installed");
  } else {
    active_.store(nullptr, std::memory_order_release);
  }
}

}  // namespace scwsc
