#include "src/common/logging.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

namespace scwsc {
namespace {

/// Parses SCWSC_LOG_LEVEL (debug/info/warn/error, case-sensitive lowercase,
/// or a bare digit 0-3). Unset or unparsable keeps the kInfo default;
/// SetLogLevel still overrides at runtime.
int InitialLevel() {
  const char* env = std::getenv("SCWSC_LOG_LEVEL");
  if (env == nullptr || env[0] == '\0') {
    return static_cast<int>(LogLevel::kInfo);
  }
  if (std::strcmp(env, "debug") == 0) return static_cast<int>(LogLevel::kDebug);
  if (std::strcmp(env, "info") == 0) return static_cast<int>(LogLevel::kInfo);
  if (std::strcmp(env, "warn") == 0) return static_cast<int>(LogLevel::kWarn);
  if (std::strcmp(env, "error") == 0) return static_cast<int>(LogLevel::kError);
  if (env[0] >= '0' && env[0] <= '3' && env[1] == '\0') return env[0] - '0';
  return static_cast<int>(LogLevel::kInfo);
}

std::atomic<int> g_min_level{InitialLevel()};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

/// Formats the current wall clock as ISO-8601 UTC with millisecond
/// precision, e.g. "2015-04-13T09:26:53.123Z". `out` must hold >= 25 bytes.
void FormatTimestamp(char* out, std::size_t size) {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  std::tm tm{};
  gmtime_r(&ts.tv_sec, &tm);
  char date[20];
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", &tm);
  const int millis = static_cast<int>(ts.tv_nsec / 1'000'000) % 1000;
  std::snprintf(out, size, "%s.%03dZ", date, millis);
}

/// A short stable id for the calling thread (hash of std::thread::id).
unsigned long ThreadTag() {
  return static_cast<unsigned long>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

void VLog(LogLevel level, const char* file, int line, const char* fmt,
          va_list args) {
  char stamp[32];
  FormatTimestamp(stamp, sizeof(stamp));
  std::fprintf(stderr, "[%s %s t%05lu %s:%d] ", stamp, LevelName(level),
               ThreadTag(), Basename(file), line);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}

/// Writes one FATAL line: the prefix, "Check failed: <condition>" when
/// `condition` is set, then the formatted message.
void VLogFatal(const char* file, int line, const char* condition,
               const char* fmt, va_list args) {
  char stamp[32];
  FormatTimestamp(stamp, sizeof(stamp));
  std::fprintf(stderr, "[%s FATAL t%05lu %s:%d] ", stamp, ThreadTag(),
               Basename(file), line);
  if (condition != nullptr) std::fprintf(stderr, "Check failed: %s", condition);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}

// --- Warn rate limiting ----------------------------------------------------
// One token bucket per warn call site (file pointer + line; __FILE__
// literals are stable addresses). The warn path is not hot — a global mutex
// around the site map is fine, and a chaos storm hammering one site pays
// one short critical section per suppressed message instead of a stderr
// write.

constexpr double kWarnBurst = 10.0;
constexpr double kWarnTokensPerSecond = 5.0;

struct WarnSite {
  double tokens = kWarnBurst;
  std::chrono::steady_clock::time_point last_refill;
  std::uint64_t suppressed_since_emit = 0;
};

std::mutex g_warn_sites_mu;
std::map<std::pair<const char*, int>, WarnSite>& WarnSites() {
  static auto* sites = new std::map<std::pair<const char*, int>, WarnSite>();
  return *sites;
}
std::atomic<std::uint64_t> g_suppressed_total{0};

/// Returns whether the warning at (file, line) may be emitted now; when it
/// may and earlier messages from the site were suppressed, their count is
/// returned via `suppressed_before` (and reset) so the caller can say so.
bool AdmitWarn(const char* file, int line, std::uint64_t* suppressed_before) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(g_warn_sites_mu);
  auto [it, inserted] = WarnSites().try_emplace(std::make_pair(file, line));
  WarnSite& site = it->second;
  if (inserted) {
    site.last_refill = now;
  } else {
    const double elapsed =
        std::chrono::duration<double>(now - site.last_refill).count();
    site.tokens = std::min(kWarnBurst,
                           site.tokens + elapsed * kWarnTokensPerSecond);
    site.last_refill = now;
  }
  if (site.tokens < 1.0) {
    ++site.suppressed_since_emit;
    g_suppressed_total.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  site.tokens -= 1.0;
  *suppressed_before = site.suppressed_since_emit;
  site.suppressed_since_emit = 0;
  return true;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void LogMessage(LogLevel level, const char* file, int line, const char* fmt,
                ...) {
  if (static_cast<int>(level) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::uint64_t suppressed_before = 0;
  if (level == LogLevel::kWarn &&
      !AdmitWarn(file, line, &suppressed_before)) {
    return;
  }
  va_list args;
  va_start(args, fmt);
  VLog(level, file, line, fmt, args);
  va_end(args);
  if (suppressed_before > 0) {
    char stamp[32];
    FormatTimestamp(stamp, sizeof(stamp));
    std::fprintf(stderr,
                 "[%s WARN t%05lu %s:%d] (rate limit: %llu similar warnings"
                 " suppressed)\n",
                 stamp, ThreadTag(), Basename(file), line,
                 static_cast<unsigned long long>(suppressed_before));
  }
}

std::uint64_t LogSuppressedCount() {
  return g_suppressed_total.load(std::memory_order_relaxed);
}

void LogFatal(const char* file, int line, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  VLogFatal(file, line, nullptr, fmt, args);
  va_end(args);
  std::abort();
}

void LogCheckFailed(const char* file, int line, const char* condition,
                    const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  VLogFatal(file, line, condition, fmt, args);
  va_end(args);
  std::abort();
}

}  // namespace scwsc
