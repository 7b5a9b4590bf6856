// Status: lightweight error type used throughout the library in place of
// exceptions (RocksDB/Arrow idiom). Fallible functions return Status or
// Result<T> (see result.h).
#ifndef OODB_COMMON_STATUS_H_
#define OODB_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace oodb {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kParseError,
  kTypeError,
  kPlanError,
  // Resource-governor and storage-fault categories (see common/governor.h):
  // queries bounded by a deadline/budget or cancelled cooperatively fail
  // with these instead of running to exhaustion; injected or real storage
  // faults surface as kStorageFault at the session boundary.
  kDeadlineExceeded,
  kBudgetExhausted,
  kCancelled,
  kStorageFault,
  // Exec-layer fault category (see exec/exec_fault.h): a parallel worker
  // died (or was made to die by the injector) mid-pipeline. Transient by
  // definition — the statement's input is a read-only store — so it is the
  // retryable class the Session retry ladder re-executes.
  kWorkerFault,
  // Adaptive re-optimization (see session.h AdaptiveOptions): a drift check
  // at a pipeline breaker observed actual cardinality off from the estimate
  // by more than the configured factor and aborted the unexecuted suffix.
  // Deliberately NOT in IsRetryableExecFault — re-running the same plan
  // would hit the same drift; the Session replan path catches this code,
  // re-enters the memo with measured cardinalities, and restarts.
  kPlanDrift,
};

/// Returns a human-readable name for a status code ("InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy when OK (no allocation).
/// [[nodiscard]]: silently dropping a Status hides failures (the bug class
/// behind unchecked AddToSet/BuildIndexes call sites).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status PlanError(std::string msg) {
    return Status(StatusCode::kPlanError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status BudgetExhausted(std::string msg) {
    return Status(StatusCode::kBudgetExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status StorageFault(std::string msg) {
    return Status(StatusCode::kStorageFault, std::move(msg));
  }
  static Status WorkerFault(std::string msg) {
    return Status(StatusCode::kWorkerFault, std::move(msg));
  }
  static Status PlanDrift(std::string msg) {
    return Status(StatusCode::kPlanDrift, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace oodb

/// Propagates a non-OK Status to the caller.
#define OODB_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::oodb::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                      \
  } while (0)

#endif  // OODB_COMMON_STATUS_H_
