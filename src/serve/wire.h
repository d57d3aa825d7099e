// Versioned wire protocol shared by the serve frontends (the batch file
// reader and the socket server, src/serve/server.h).
//
// Version 2 is the only protocol. A request envelope is one JSON object:
//
//   {"version": 2,                // required
//    "id": "req-17",              // echoed verbatim in the response
//    "type": "solve",             // solve | delta | ping | list_solvers
//    "tenant": "acme",            // optional; admission + fair share
//    ...type-specific fields...}
//
// and every response is {"version": 2, "id": ..., "ok": true, "result":
// {...}} or {"version": 2, "id": ..., "ok": false, "error": {...}} where
// the error object is the typed envelope below — never free text.
//
// A request or batch file without "version": 2 is refused with
// InvalidArgument. Unknown keys are not errors: they are collected and
// echoed back under "forward", so a newer client's fields round-trip
// through an older server (forward compatibility).
//
// docs/serving.md carries the full reference.

#ifndef SCWSC_SERVE_WIRE_H_
#define SCWSC_SERVE_WIRE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/api/delta.h"
#include "src/api/instance.h"
#include "src/common/result.h"
#include "src/serve/json.h"
#include "src/serve/scheduler.h"

namespace scwsc {
namespace serve {

/// The protocol version this build speaks natively.
inline constexpr int kWireVersion = 2;

/// The integers a JSON number (an IEEE double) carries exactly: [0, 2^53].
inline constexpr std::int64_t kMaxWireInteger = std::int64_t{1} << 53;

/// The longest `tenant` or `label` a job may carry, in bytes. Each tenant
/// names serve.tenant.<tenant>.* metrics and the label is echoed in every
/// report, so neither may grow to the request-line cap.
inline constexpr std::size_t kMaxTenantLabelBytes = 256;

/// The number in `v`, or InvalidArgument naming the field `what`.
Result<double> RequireNumber(const JsonValue& v, const std::string& what);

/// Reads an integral number in [lo, hi] (both exactly representable as
/// doubles) as a T. Converting a fractional or out-of-range double to an
/// integer type is undefined behaviour, so anything else is rejected with
/// InvalidArgument naming the field. Shared by every decoder of client JSON
/// (wire requests and batch files).
template <typename T>
Result<T> RequireInteger(const JsonValue& v, const std::string& what,
                         std::int64_t lo, std::int64_t hi) {
  SCWSC_ASSIGN_OR_RETURN(double n, RequireNumber(v, what));
  if (!(n >= static_cast<double>(lo) && n <= static_cast<double>(hi)) ||
      n != std::floor(n)) {
    return Status::InvalidArgument("field '" + what +
                                   "' must be an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return static_cast<T>(n);
}

/// The typed error envelope: a 1:1 mapping of Status onto the wire.
/// `retryable` tells a client that sending the same request again may
/// succeed: true for Internal (a solver that failed or threw, say out of
/// memory), Unavailable and ResourceExhausted (a full queue, a tenant
/// quota). The server itself runs each admitted job once and never re-runs
/// it. `retry_after_ms` surfaces a RetryAfterHint payload (tenant quota,
/// full queue) machine-readably, 0 when the status carried none.
struct ErrorInfo {
  std::string code;     // stable StatusCode name, e.g. "ResourceExhausted"
  std::string message;  // the status message, verbatim
  bool retryable = false;
  double retry_after_ms = 0.0;
};

/// Maps a non-OK Status onto the envelope. Must not be called with OK.
ErrorInfo ErrorInfoFromStatus(const Status& status);

/// {"code": ..., "message": ..., "retryable": ...} plus "retry_after_ms"
/// when the hint is positive.
JsonValue ErrorToJson(const ErrorInfo& error);

/// OK when the payload carries "version": kWireVersion; InvalidArgument
/// naming version 2 otherwise (absent, 1, or any other value). `where`
/// names the surface in the message ("socket", "batch-file <path>").
Status CheckWireVersion(const JsonValue& root, const std::string& where);

/// One parsed job object plus its extras. `forward` holds the unknown keys
/// for the round-trip echo; `repeat` is the batch-file expansion count
/// (always 1 on the socket path).
struct ParsedJob {
  SolveJob job;
  std::size_t repeat = 1;
  JsonObject forward;
};

/// Parses one job-shaped JSON object (a batch "jobs" entry or a socket
/// "solve" request) into a SolveJob over `instance`. Accepted keys: solver
/// (required), k, coverage, options, deadline_ms, priority, label, tenant,
/// certify, repeat. Integer keys must be integral and in range: k and
/// deadline_ms in [0, 2^53], repeat in [1, 2^53], priority within int;
/// certify is a bool; tenant and label are at most kMaxTenantLabelBytes
/// long; anything else is InvalidArgument naming the field. Unknown keys
/// land in `forward`. `at` prefixes error messages ("jobs[3]"). Envelope
/// keys (version/id/type/snapshot) are skipped, never forwarded. The
/// trailing int is ignored; it is kept only so that perfbench's
/// `ParseJobObject(..., serve::kWireVersion)` compiles until a change to
/// the benchmark drops the argument.
Result<ParsedJob> ParseJobObject(const JsonValue& entry,
                                 const api::InstancePtr& instance,
                                 const std::string& at,
                                 int = kWireVersion);

/// Parses the mutation fields of a "delta" request into a SnapshotDelta.
/// Accepted keys: append_rows ([{"values": [...], "measure": n}]),
/// retract_rows ([indices]), add_sets ([{"elements": [...], "cost": n,
/// "label": s}]), remove_sets ([ids]). Row indices, element ids and set ids
/// must be integers in range for their type (row indices at most 2^53).
/// Validation against the snapshot (bounds, duplicates, arity) happens in
/// api::ApplyDelta, which owns the rules.
Result<api::SnapshotDelta> ParseDeltaObject(const JsonValue& entry,
                                            const std::string& at);

/// Renders what one delta application did: child_version, row/set op
/// counts, and the child's content hash as a hex *string* ("0x..."),
/// because a 64-bit hash does not survive the trip through a JSON double.
JsonValue DeltaStatsToJson(const api::DeltaStats& stats,
                           std::uint64_t content_hash);

/// Writes the fields a solve result shows on both serve surfaces (a batch
/// report entry and a socket response's "result"): total_cost, covered,
/// num_sets, selection, and lower_bound plus certified_ratio when the
/// result carries a certificate. An infinite ratio renders as null.
void AddResultFields(const api::SolveResult& result, JsonObject& out);

/// The registry's canonical spelling of solver `name` (lookups fold case),
/// or `name` as sent when the registry does not know it. Both serve
/// surfaces echo it, so a response names its solver as the metrics do.
std::string CanonicalSolverName(const std::string& name);

/// The registry's solver table as machine-readable JSON: {"solvers":
/// [{"name", "summary", "capabilities", "options": [{"name", "type",
/// "default", "required", "help"}]}]}. Shared by the
/// CLI's --list-solvers --json and the socket server's list_solvers so the
/// two surfaces cannot drift.
JsonValue SolverListToJson();

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_WIRE_H_
