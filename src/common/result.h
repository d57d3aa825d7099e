// Result<T>: a value or a Status, for fallible functions that produce data.
//
// Mirrors arrow::Result / absl::StatusOr. A Result is either OK and holds a
// T, or holds a non-OK Status. Accessing the value of an error Result aborts
// (library invariant violation), so callers must check ok() or use
// SCWSC_ASSIGN_OR_RETURN.

#ifndef SCWSC_COMMON_RESULT_H_
#define SCWSC_COMMON_RESULT_H_

#include <cstdlib>
#include <utility>
#include <variant>

#include "src/common/logging.h"
#include "src/common/status.h"

namespace scwsc {

template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, like arrow::Result).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status. Passing an OK status is a programming
  /// error and is converted to an Internal error.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {
    if (std::get<Status>(repr_).ok()) {
      repr_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The error status; OK() if this Result holds a value.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  /// The contained value. Requires ok().
  const T& value() const& {
    CheckOk();
    return std::get<T>(repr_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(repr_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// Moves the value out: `*std::move(r)` leaves `r` holding a moved-from T.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this Result is an error.
  T ValueOr(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  void CheckOk() const {
    if (!ok()) {
      SCWSC_LOG_FATAL("Result::value() on error: %s",
                      std::get<Status>(repr_).ToString().c_str());
    }
  }
  std::variant<T, Status> repr_;
};

}  // namespace scwsc

/// Evaluates `rexpr` (a Result<T>), propagating the error or assigning the
/// value into `lhs`:
///   SCWSC_ASSIGN_OR_RETURN(auto table, csv::Read(path));
#define SCWSC_ASSIGN_OR_RETURN(lhs, rexpr)                      \
  SCWSC_ASSIGN_OR_RETURN_IMPL_(                                 \
      SCWSC_CONCAT_(scwsc_result_, __LINE__), lhs, rexpr)

#define SCWSC_CONCAT_INNER_(a, b) a##b
#define SCWSC_CONCAT_(a, b) SCWSC_CONCAT_INNER_(a, b)
#define SCWSC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#endif  // SCWSC_COMMON_RESULT_H_
