// Minimal leveled logging and fatal-check macros.
//
// Logging goes to stderr; benchmarks and examples print their payload to
// stdout so the two streams can be separated. Fatal checks abort: they guard
// internal invariants only, never user input (user input errors surface as
// Status).

#ifndef SCWSC_COMMON_LOGGING_H_
#define SCWSC_COMMON_LOGGING_H_

#include <cstdarg>
#include <cstdint>

namespace scwsc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the minimum level that is emitted. The default is kInfo, or the
/// SCWSC_LOG_LEVEL environment variable (debug|info|warn|error or 0-3) when
/// set; this call overrides either. Every line carries an ISO-8601 UTC
/// timestamp and a short thread tag.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// printf-style log emission; prefer the SCWSC_LOG_* macros.
void LogMessage(LogLevel level, const char* file, int line, const char* fmt,
                ...) __attribute__((format(printf, 4, 5)));

/// Logs and aborts. Used by SCWSC_LOG_FATAL.
[[noreturn]] void LogFatal(const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

/// Logs "Check failed: <condition>" followed by the formatted message, and
/// aborts. Used by SCWSC_CHECK, which passes the condition's source text as
/// an argument, so a `%` in it is printed literally, and prefixes `fmt`
/// with the separating space, so a check without a message has a non-empty
/// format.
[[noreturn]] void LogCheckFailed(const char* file, int line,
                                 const char* condition, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

/// Warn-level messages are rate limited per call site (a token bucket of 10
/// with 5 tokens/second refill), so a chaos storm repeating one warning
/// cannot flood stderr; suppressed messages are counted here and surfaced
/// by the telemetry pump as the `log.suppressed` gauge. When a site
/// recovers a token after suppressing, the next emitted line is followed by
/// a note with the suppressed count.
std::uint64_t LogSuppressedCount();

}  // namespace scwsc

#define SCWSC_LOG_DEBUG(...) \
  ::scwsc::LogMessage(::scwsc::LogLevel::kDebug, __FILE__, __LINE__, __VA_ARGS__)
#define SCWSC_LOG_INFO(...) \
  ::scwsc::LogMessage(::scwsc::LogLevel::kInfo, __FILE__, __LINE__, __VA_ARGS__)
#define SCWSC_LOG_WARN(...) \
  ::scwsc::LogMessage(::scwsc::LogLevel::kWarn, __FILE__, __LINE__, __VA_ARGS__)
#define SCWSC_LOG_ERROR(...) \
  ::scwsc::LogMessage(::scwsc::LogLevel::kError, __FILE__, __LINE__, __VA_ARGS__)
#define SCWSC_LOG_FATAL(...) \
  ::scwsc::LogFatal(__FILE__, __LINE__, __VA_ARGS__)

/// Aborts with a message when an internal invariant does not hold:
/// SCWSC_CHECK(cond) or SCWSC_CHECK(cond, "printf format", args...).
#define SCWSC_CHECK(cond, ...)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::scwsc::LogCheckFailed(__FILE__, __LINE__, #cond, " " __VA_ARGS__); \
    }                                                                     \
  } while (false)

#ifndef NDEBUG
#define SCWSC_DCHECK(cond, ...) SCWSC_CHECK(cond, __VA_ARGS__)
#else
#define SCWSC_DCHECK(cond, ...) \
  do {                          \
  } while (false)
#endif

#endif  // SCWSC_COMMON_LOGGING_H_
