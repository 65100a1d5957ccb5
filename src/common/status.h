#ifndef FLOWCUBE_COMMON_STATUS_H_
#define FLOWCUBE_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace flowcube {

// Status is the error-reporting vocabulary for every fallible operation in
// the library (the project does not use exceptions). A Status is either OK
// or carries an error code plus a human-readable message.
//
// Typical use:
//
//   Status s = db.Append(path);
//   if (!s.ok()) return s;
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kOutOfRange,
    kFailedPrecondition,
    kInternal,
    // Appended after kInternal so existing wire encodings stay stable.
    kUnavailable,        // endpoint unreachable (refused / reset / closed)
    kDeadlineExceeded,   // connect or read timed out
  };

  // Constructs an OK status.
  Status() = default;

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  // Factory functions, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(Code::kAlreadyExists, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(Code::kOutOfRange, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(Code::kFailedPrecondition, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(Code::kInternal, msg);
  }
  static Status Unavailable(std::string_view msg) {
    return Status(Code::kUnavailable, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(Code::kDeadlineExceeded, msg);
  }
  // A status of any code, e.g. one carried on the wire; kOk drops `msg`.
  static Status FromCode(Code code, std::string_view msg) {
    return code == Code::kOk ? Status() : Status(code, msg);
  }

  // True iff the operation succeeded.
  bool ok() const { return code_ == Code::kOk; }

  Code code() const { return code_; }

  // The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  // Renders "OK" or "<code>: <message>" for logs and error surfaces.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(Code code, std::string_view msg) : code_(code), message_(msg) {}

  Code code_ = Code::kOk;
  std::string message_;
};

// Returns the canonical name of a status code ("OK", "InvalidArgument", ...).
std::string_view StatusCodeName(Status::Code code);

// Result<T> couples a Status with a value of type T: an operation either
// produced a value or failed with a non-OK status. Mirrors absl::StatusOr.
//
//   Result<PathDatabase> r = LoadPathDatabase(file);
//   if (!r.ok()) return r.status();
//   Use(r.value());
template <typename T>
class Result {
 public:
  // Success: wraps a value. Intentionally implicit so functions can
  // `return value;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  // Failure: wraps a non-OK status. Intentionally implicit so functions can
  // `return Status::InvalidArgument(...)`.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // Value access. Must only be called when ok().
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status out of the enclosing function.
#define FC_RETURN_IF_ERROR(expr)                    \
  do {                                              \
    ::flowcube::Status fc_status_macro_s = (expr);  \
    if (!fc_status_macro_s.ok()) {                  \
      return fc_status_macro_s;                     \
    }                                               \
  } while (false)

}  // namespace flowcube

#endif  // FLOWCUBE_COMMON_STATUS_H_
