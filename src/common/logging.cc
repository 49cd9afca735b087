#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace scatter {
namespace {

LogLevel g_level = LogLevel::kWarning;
ClockFn g_clock_fn = nullptr;
void* g_clock_arg = nullptr;
CheckFailHandler g_check_fail_handler = nullptr;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  return base;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

void SetLogClock(ClockFn fn, void* arg) {
  g_clock_fn = fn;
  g_clock_arg = arg;
}

void SetCheckFailureHandler(CheckFailHandler handler) {
  g_check_fail_handler = handler;
}

namespace internal {

LogLevel EmitFloor() { return g_level; }

void Emit(LogLevel level, const char* file, const std::string& msg) {
  const int64_t now = g_clock_fn != nullptr ? g_clock_fn(g_clock_arg) : -1;
  if (now >= 0) {
    std::fprintf(stderr, "%s %9.3fs %s] %s\n", LevelTag(level),
                 static_cast<double>(now) / 1e6, Basename(file), msg.c_str());
  } else {
    std::fprintf(stderr, "%s %s] %s\n", LevelTag(level), Basename(file),
                 msg.c_str());
  }
}

void CheckFailure(const char* file, int line, const char* cond) {
  if (g_check_fail_handler != nullptr) {
    g_check_fail_handler(file, line, cond);
    // The handler contract is to throw; if it returned we must still die.
    std::abort();
  }
  const std::string msg = std::string("CHECK failed: ") + cond;
  // Print regardless of the configured level: a violated protocol invariant
  // must never abort silently.
  const int64_t now = g_clock_fn != nullptr ? g_clock_fn(g_clock_arg) : -1;
  if (now >= 0) {
    std::fprintf(stderr, "E %9.3fs %s:%d] %s\n",
                 static_cast<double>(now) / 1e6, Basename(file), line,
                 msg.c_str());
  } else {
    std::fprintf(stderr, "E %s:%d] %s\n", Basename(file), line, msg.c_str());
  }
  std::abort();
}

}  // namespace internal
}  // namespace scatter
