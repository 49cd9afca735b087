// Lightweight Status / StatusOr error model (no exceptions).
//
// Mirrors the absl::Status design at a fraction of the surface: a small set
// of canonical codes plus a free-form message. StatusOr<T> carries either a
// value or a non-OK Status.

#ifndef SCATTER_SRC_COMMON_STATUS_H_
#define SCATTER_SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace scatter {

enum class StatusCode {
  kOk = 0,
  kTimeout,          // Operation did not complete before its deadline.
  kUnavailable,      // No live replica / no route / group lost.
  kNotLeader,        // Contacted replica is not the group leader.
  kWrongGroup,       // Key is outside the contacted group's range.
  kNotFound,         // Key has no value.
  kAborted,          // Transaction or group operation aborted.
  kConflict,         // Conflicting group operation in flight.
  kInvalidArgument,  // Caller error.
  kInternal,         // Invariant violation; indicates a bug.
};

// Human-readable name of a code, e.g. "TIMEOUT".
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status TimeoutError(std::string m) {
  return Status(StatusCode::kTimeout, std::move(m));
}
inline Status UnavailableError(std::string m) {
  return Status(StatusCode::kUnavailable, std::move(m));
}
inline Status NotLeaderError(std::string m) {
  return Status(StatusCode::kNotLeader, std::move(m));
}
inline Status NotFoundError(std::string m) {
  return Status(StatusCode::kNotFound, std::move(m));
}
inline Status AbortedError(std::string m) {
  return Status(StatusCode::kAborted, std::move(m));
}
inline Status ConflictError(std::string m) {
  return Status(StatusCode::kConflict, std::move(m));
}
inline Status InvalidArgumentError(std::string m) {
  return Status(StatusCode::kInvalidArgument, std::move(m));
}
inline Status InternalError(std::string m) {
  return Status(StatusCode::kInternal, std::move(m));
}

// Either a T or a non-OK Status. Accessing value() on a non-OK StatusOr is a
// programming error (asserts in debug builds).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "OK StatusOr must carry a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  // Engagement of value_ is the source of truth (the constructors keep it in
  // lockstep with status_). Deriving ok() from it also lets the compiler see
  // that an ok() guard proves the optional is engaged at a later *value_.
  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace scatter

#endif  // SCATTER_SRC_COMMON_STATUS_H_
