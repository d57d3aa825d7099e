// Status: lightweight error propagation for fallible operations.
//
// Follows the RocksDB/Arrow idiom: library code never throws across the
// public API; instead every fallible function returns a Status (or a
// Result<T>, see result.h). A Status is cheap to copy when OK (no
// allocation) and carries a code plus a human-readable message otherwise.

#ifndef SCWSC_COMMON_STATUS_H_
#define SCWSC_COMMON_STATUS_H_

#include <any>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace scwsc {

/// Error category for a failed operation.
enum class StatusCode : int {
  kOk = 0,
  /// The caller supplied an argument outside the documented domain
  /// (e.g. a negative k, a coverage fraction outside [0, 1]).
  kInvalidArgument = 1,
  /// The instance admits no feasible solution under the given constraints
  /// (CWSC line 07: return "No solution").
  kInfeasible = 2,
  /// A referenced entity (column, pattern attribute, file) does not exist.
  kNotFound = 3,
  /// Input data failed to parse (CSV syntax, dictionary overflow, ...).
  kParseError = 4,
  /// An internal invariant was violated; indicates a bug in this library.
  kInternal = 5,
  /// The requested operation is not implemented for this configuration.
  kNotSupported = 6,
  /// A resource limit was exceeded (e.g. exact solver node budget).
  kResourceExhausted = 7,
  /// A RunContext deadline expired before the operation completed. The
  /// Status may carry the best solution found so far as a payload.
  kDeadlineExceeded = 8,
  /// The operation was cancelled via RunContext::RequestCancel(). The
  /// Status may carry the best solution found so far as a payload.
  kCancelled = 9,
  /// A serving resource cannot be had right now (the socket server cannot
  /// create or bind its listening socket). Unlike kResourceExhausted this
  /// is not a capacity signal.
  kUnavailable = 10,
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Machine-readable retry-after carried as a Status payload by throttling
/// rejections (tenant quota denials, a full serve queue). Frontends map it
/// into the wire error envelope's retry_after_ms field instead of parsing
/// it out of the message text.
struct RetryAfterHint {
  double ms = 0.0;
};

/// Result of a fallible operation: a code plus an optional message.
///
/// The OK state is represented by a null payload, so `Status::OK()` never
/// allocates and moves are trivially cheap. Inspired by rocksdb::Status.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. `code` must not be
  /// kOk (use the default constructor / OK() for success).
  Status(StatusCode code, std::string message);

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsInfeasible() const { return code() == StatusCode::kInfeasible; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsParseError() const { return code() == StatusCode::kParseError; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  /// True for the codes a tripped RunContext produces: DeadlineExceeded,
  /// Cancelled, or ResourceExhausted (work-budget trips). Such statuses may
  /// carry a best-so-far solution payload.
  bool IsInterruption() const {
    return IsDeadlineExceeded() || IsCancelled() || IsResourceExhausted();
  }

  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  /// The message supplied at construction; empty for OK.
  std::string_view message() const {
    return rep_ ? std::string_view(rep_->message) : std::string_view();
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Returns a copy of this Status carrying `value` as its payload.
  ///
  /// Interruption statuses (deadline/cancel/budget) use this to hand the
  /// caller the best solution found before the trip: a `Result<Solution>`
  /// holding the error can still surrender the partial answer via
  /// `status.payload<Solution>()`. Must not be called on an OK status —
  /// success values travel in Result<T>, not here.
  template <class T>
  Status WithPayload(T value) const {
    Status out(code(), std::string(message()));
    if (out.rep_ != nullptr) {  // OK has no rep; payload is silently dropped
      const_cast<Rep*>(out.rep_.get())->payload = std::move(value);
    }
    return out;
  }

  /// Returns the payload if one of type T is attached, else nullptr.
  template <class T>
  const T* payload() const {
    return rep_ ? std::any_cast<T>(&rep_->payload) : nullptr;
  }

  bool has_payload() const { return rep_ && rep_->payload.has_value(); }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code() && a.message() == b.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
    std::any payload;  // best-so-far solution on interruption; usually empty
  };
  // Null iff OK. shared_ptr keeps copies cheap; Status is logically a value.
  std::shared_ptr<const Rep> rep_;
};

}  // namespace scwsc

/// Propagates a non-OK Status to the caller. Usage:
///   SCWSC_RETURN_NOT_OK(DoThing());
#define SCWSC_RETURN_NOT_OK(expr)                 \
  do {                                            \
    ::scwsc::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                    \
  } while (false)

#endif  // SCWSC_COMMON_STATUS_H_
