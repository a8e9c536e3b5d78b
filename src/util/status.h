#ifndef QMQO_UTIL_STATUS_H_
#define QMQO_UTIL_STATUS_H_

/// \file status.h
/// Error-handling primitives for the qmqo library.
///
/// Following the conventions of large C++ database systems (RocksDB, Arrow),
/// the library does not throw exceptions: fallible operations return a
/// `Status`, and fallible operations that produce a value return a
/// `Result<T>`. Both are cheap to move and carry a machine-readable code plus
/// a human-readable message.

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace qmqo {

/// Machine-readable error category, modeled after absl/arrow status codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kTimeout,
  kUnavailable,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// The result of an operation that can fail but returns no value.
///
/// A default-constructed `Status` is OK. Error statuses carry a message
/// describing what went wrong; callers are expected to check `ok()` (or use
/// the QMQO_RETURN_IF_ERROR macro) before relying on any side effects.
///
/// Layout: a code plus an owned pointer to the message, allocated only for
/// a non-empty message — 16 bytes on 64-bit targets, and an OK status never
/// allocates. Settled service outcomes store one each, so the size counts.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with an explicit code and message.
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty()
                     ? nullptr
                     : std::make_unique<std::string>(std::move(message))) {}

  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_ == nullptr
                     ? nullptr
                     : std::make_unique<std::string>(*other.message_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) *this = Status(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Named constructors, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }
  /// The message; a shared empty string when there is none.
  const std::string& message() const {
    return message_ == nullptr ? EmptyMessage() : *message_;
  }

  /// Formats the status as "CODE: message" (or "OK").
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message() == other.message();
  }

 private:
  static const std::string& EmptyMessage();

  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;
};

/// The result of an operation that produces a `T` on success.
///
/// Either holds a value (status is OK) or an error status. Accessing the
/// value of an errored result aborts in debug builds and is undefined in
/// release builds, mirroring arrow::Result semantics.
template <typename T>
class Result {
 public:
  /// Constructs an errored result. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  const Status& status() const { return status_; }

  /// Returns the contained value; requires `ok()`.
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

  /// Returns the contained value or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates an error status out of the current function.
#define QMQO_RETURN_IF_ERROR(expr)           \
  do {                                       \
    ::qmqo::Status _qmqo_status = (expr);    \
    if (!_qmqo_status.ok()) {                \
      return _qmqo_status;                   \
    }                                        \
  } while (false)

#define QMQO_CONCAT_IMPL(a, b) a##b
#define QMQO_CONCAT(a, b) QMQO_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a Result<T>); on error returns the status, otherwise
/// move-assigns the value into `lhs` (which may be a declaration).
#define QMQO_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  QMQO_ASSIGN_OR_RETURN_IMPL(QMQO_CONCAT(_qmqo_res_, __LINE__), \
                             lhs, rexpr)

#define QMQO_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) {                                  \
    return tmp.status();                            \
  }                                                 \
  lhs = std::move(tmp).value()

}  // namespace qmqo

#endif  // QMQO_UTIL_STATUS_H_
