// SolverRegistry: name -> Solver factory, with capability flags.
//
// Algorithms register themselves with static registrars (the
// SCWSC_REGISTER_SOLVER macro) so adding a solver is one self-contained
// translation unit — no central switch statement to extend. The registry is
// the seam every frontend dispatches through:
//
//   api::SolveRequest req;
//   req.instance = snapshot;           // shared, immutable (instance.h)
//   req.k = 10; req.coverage_fraction = 0.3;
//   auto result = api::SolverRegistry::Global().Solve("cwsc", req, &ctx);
//
// Registry::Solve validates the solver's capabilities against the instance
// first, so "this solver needs attribute hierarchies the input lacks" is a
// typed, actionable error rather than a crash deep inside an algorithm.

#ifndef SCWSC_API_REGISTRY_H_
#define SCWSC_API_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/solver.h"

namespace scwsc {
namespace api {

/// Everything a frontend needs to list or validate a solver without
/// instantiating it.
struct SolverInfo {
  std::string name;       // registry key, canonical lowercase, e.g. "opt-cwsc"
  std::string summary;    // one line for --list-solvers
  unsigned capabilities = 0;  // SolverCapability bits
  /// Accepted options: snake_case key, type, default and help per entry.
  /// Registry::Solve validates every request's bag against this table,
  /// --list-solvers renders it, and the round-trip property test re-parses
  /// its defaults.
  OptionsSpec options;
};

class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Solver>()>;

  /// The process-wide registry all built-in solvers register into.
  static SolverRegistry& Global();

  /// Registers a solver. InvalidArgument on an empty or duplicate name.
  Status Register(SolverInfo info, Factory factory);

  /// Info for `name` (matched ASCII-case-insensitively; registered names
  /// are canonical lowercase), or nullptr. The pointer stays valid for the
  /// registry's lifetime (registrations never remove entries).
  const SolverInfo* Find(const std::string& name) const;

  /// Instantiates the named solver (case-insensitive); NotFound listing the
  /// known canonical names when it is not registered.
  Result<std::unique_ptr<Solver>> Create(const std::string& name) const;

  /// All registered solvers, sorted by name.
  std::vector<SolverInfo> List() const;

  /// InvalidArgument with a capability-aware message when `instance` lacks
  /// something `info` requires (a patterned table, hierarchies).
  static Status CheckCapabilities(const SolverInfo& info,
                                  const InstanceSnapshot& instance);

  /// Lookup (case-insensitive) + capability check + options validation
  /// (exact keys) + Solve, in one call. This is the seam the CLI, the
  /// bench harness, the serve scheduler and the tests all go through. A
  /// non-zero request.deadline is applied through an internal RunContext;
  /// combining it with an explicit `run_context` is an InvalidArgument
  /// (two deadline authorities would race).
  Result<SolveResult> Solve(const std::string& name,
                            const SolveRequest& request,
                            const RunContext* run_context = nullptr) const;

 private:
  struct Entry {
    SolverInfo info;
    Factory factory;
  };

  mutable std::mutex mu_;  // registration runs during static init
  std::map<std::string, Entry> entries_;
};

/// Static registrar: constructing one registers a solver into the global
/// registry. Use through SCWSC_REGISTER_SOLVER.
class SolverRegistrar {
 public:
  SolverRegistrar(SolverInfo info, SolverRegistry::Factory factory);
};

/// Registers `SolverClass` (default-constructible Solver subclass) under
/// `info` at static-initialization time:
///
///   SCWSC_REGISTER_SOLVER(MySolver, SolverInfo{.name = "my-solver", ...});
#define SCWSC_REGISTER_SOLVER(SolverClass, ...)                            \
  static const ::scwsc::api::SolverRegistrar                               \
      scwsc_solver_registrar_##SolverClass(                                \
          __VA_ARGS__, []() -> std::unique_ptr<::scwsc::api::Solver> {     \
            return std::make_unique<SolverClass>();                        \
          })

}  // namespace api
}  // namespace scwsc

#endif  // SCWSC_API_REGISTRY_H_
