// Minimal leveled logging for simulation runs.
//
// Logging in a discrete-event simulator must be cheap when disabled (runs
// schedule millions of events) and must stamp entries with *simulated* time,
// which the logger learns through a clock hook installed by the simulator.
// Lines go to stderr only; a line below the level is never formatted. A
// line names its source file but not the line number, so a run's log stays
// byte-identical when code above a log site moves; a CHECK failure keeps
// the line number.
// Causal traces are a separate channel (src/obs/trace.h), not log lines.

#ifndef SCATTER_SRC_COMMON_LOGGING_H_
#define SCATTER_SRC_COMMON_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace scatter {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarning = 3,
  kError = 4,
  kOff = 5,
};

// Global minimum level; messages below it are dropped before formatting.
void SetLogLevel(LogLevel level);

// Installed by the simulator so log lines carry virtual timestamps. May be
// nullptr (wall-less logging).
using ClockFn = int64_t (*)(void*);
void SetLogClock(ClockFn fn, void* arg);

namespace internal {

void Emit(LogLevel level, const char* file, const std::string& msg);

// The stderr level; SCATTER_LOG skips formatting below it.
LogLevel EmitFloor();

class LogLine {
 public:
  LogLine(LogLevel level, const char* file) : level_(level), file_(file) {}
  ~LogLine() { Emit(level_, file_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace scatter

#define SCATTER_LOG(level)                                               \
  if (::scatter::LogLevel::level < ::scatter::internal::EmitFloor()) {   \
  } else                                                                 \
    ::scatter::internal::LogLine(::scatter::LogLevel::level, __FILE__)

#define SCATTER_TRACE() SCATTER_LOG(kTrace)
#define SCATTER_DEBUG() SCATTER_LOG(kDebug)
#define SCATTER_INFO() SCATTER_LOG(kInfo)
#define SCATTER_WARN() SCATTER_LOG(kWarning)
#define SCATTER_ERROR() SCATTER_LOG(kError)

// Invariant check that is active in all build types. Prefer this over assert
// for protocol invariants: a violated invariant in a consensus protocol must
// never be silently ignored.
#define SCATTER_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::scatter::internal::CheckFailure(__FILE__, __LINE__, #cond);      \
    }                                                                    \
  } while (0)

namespace scatter {

// Model-checking hook: while a handler is installed, a failed SCATTER_CHECK
// calls it instead of aborting the process. The handler must not return
// (it throws), which lets a controlled exploration catch the failure, record
// it as a finding, and move on to the next schedule. Pass nullptr to restore
// the default abort behaviour.
using CheckFailHandler = void (*)(const char* file, int line,
                                  const char* cond);
void SetCheckFailureHandler(CheckFailHandler handler);

}  // namespace scatter

namespace scatter::internal {
[[noreturn]] void CheckFailure(const char* file, int line, const char* cond);
}  // namespace scatter::internal

#endif  // SCATTER_SRC_COMMON_LOGGING_H_
