#include "src/common/governor.h"

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Process-wide trip counters by kind (per-query counts live in
/// GovernorStats). Resolved once; counters are never deallocated.
struct GovernorMetrics {
  Counter* deadline_trips;
  Counter* cancel_trips;
  Counter* budget_trips;

  static const GovernorMetrics& Get() {
    static const GovernorMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      GovernorMetrics m;
      m.deadline_trips = r.counter("oodb_governor_deadline_trips_total",
                                   "Queries stopped at their deadline.");
      m.cancel_trips = r.counter("oodb_governor_cancel_trips_total",
                                 "Queries stopped by cancellation.");
      m.budget_trips =
          r.counter("oodb_governor_budget_trips_total",
                    "Queries stopped by a resource budget (memo, "
                    "alternatives, rows, pages, or tracked bytes).");
      return m;
    }();
    return m;
  }
};

}  // namespace

QueryGovernor::QueryGovernor(GovernorOptions options)
    : options_(std::move(options)), armed_at_(std::chrono::steady_clock::now()) {
  if (options_.deadline_ms > 0.0) {
    deadline_ = armed_at_ + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    options_.deadline_ms));
  }
}

Status QueryGovernor::TripLocked(Status status) {
  if (trip_.ok()) {
    trip_ = std::move(status);
    switch (trip_.code()) {
      case StatusCode::kDeadlineExceeded:
        ++stats_.deadline_trips;
        GovernorMetrics::Get().deadline_trips->Increment();
        break;
      case StatusCode::kCancelled:
        ++stats_.cancel_trips;
        GovernorMetrics::Get().cancel_trips->Increment();
        break;
      default:
        ++stats_.budget_trips;
        GovernorMetrics::Get().budget_trips->Increment();
        break;
    }
  }
  return trip_;
}

Status QueryGovernor::CheckCancelAndDeadlineLocked(const char* where) {
  if (!trip_.ok()) return trip_;
  if (options_.cancel != nullptr && options_.cancel->cancel_requested()) {
    return TripLocked(Status::Cancelled(std::string("query cancelled (") +
                                        where + ")"));
  }
  if (options_.deadline_ms > 0.0 &&
      std::chrono::steady_clock::now() >= deadline_) {
    return TripLocked(Status::DeadlineExceeded(
        "deadline of " + std::to_string(options_.deadline_ms) +
        " ms exceeded (" + where + ")"));
  }
  return Status::OK();
}

Status QueryGovernor::CheckSearch(int64_t memo_groups, int64_t memo_mexprs) {
  MutexLock lock(mu_);
  OODB_RETURN_IF_ERROR(CheckCancelAndDeadlineLocked("explore"));
  if (options_.max_memo_groups > 0 && memo_groups > options_.max_memo_groups) {
    return TripLocked(Status::BudgetExhausted(
        "memo group budget exhausted: " + std::to_string(memo_groups) + " > " +
        std::to_string(options_.max_memo_groups)));
  }
  if (options_.max_memo_mexprs > 0 && memo_mexprs > options_.max_memo_mexprs) {
    return TripLocked(Status::BudgetExhausted(
        "memo m-expr budget exhausted: " + std::to_string(memo_mexprs) +
        " > " + std::to_string(options_.max_memo_mexprs)));
  }
  return Status::OK();
}

Status QueryGovernor::CheckOptimizeEntry() {
  MutexLock lock(mu_);
  return CheckCancelAndDeadlineLocked("optimize");
}

Status QueryGovernor::ChargeAlternative() {
  MutexLock lock(mu_);
  if (!trip_.ok()) return trip_;
  ++alternatives_;
  stats_.alternatives_charged = alternatives_;
  if (options_.max_phys_alternatives > 0 &&
      alternatives_ > options_.max_phys_alternatives) {
    return TripLocked(Status::BudgetExhausted(
        "physical-alternative budget exhausted: " +
        std::to_string(alternatives_) + " > " +
        std::to_string(options_.max_phys_alternatives)));
  }
  return Status::OK();
}

Status QueryGovernor::CheckExec(int64_t new_pages) {
  MutexLock lock(mu_);
  OODB_RETURN_IF_ERROR(CheckCancelAndDeadlineLocked("execute"));
  pages_ += new_pages;
  stats_.pages_charged = pages_;
  if (options_.max_exec_pages > 0 && pages_ > options_.max_exec_pages) {
    return TripLocked(Status::BudgetExhausted(
        "simulated I/O budget exhausted: " + std::to_string(pages_) +
        " pages > " + std::to_string(options_.max_exec_pages)));
  }
  return Status::OK();
}

Status QueryGovernor::ChargeRows(int64_t n) {
  MutexLock lock(mu_);
  if (!trip_.ok()) return trip_;
  rows_ += n;
  stats_.rows_charged = rows_;
  if (options_.max_exec_rows > 0 && rows_ > options_.max_exec_rows) {
    return TripLocked(Status::BudgetExhausted(
        "row budget exhausted: " + std::to_string(rows_) + " > " +
        std::to_string(options_.max_exec_rows)));
  }
  return Status::OK();
}

Status QueryGovernor::ChargeRetry() {
  MutexLock lock(mu_);
  if (!trip_.ok()) return trip_;
  ++retries_;
  stats_.retries_charged = retries_;
  if (options_.max_retries > 0 && retries_ > options_.max_retries) {
    return TripLocked(Status::BudgetExhausted(
        "retry budget exhausted: " + std::to_string(retries_) + " > " +
        std::to_string(options_.max_retries)));
  }
  return Status::OK();
}

Status QueryGovernor::ChargeTrackedBytes(int64_t bytes) {
  MutexLock lock(mu_);
  if (!trip_.ok()) return trip_;
  tracked_bytes_ += bytes;
  if (tracked_bytes_ > stats_.tracked_bytes_peak) {
    stats_.tracked_bytes_peak = tracked_bytes_;
  }
  if (options_.max_tracked_bytes > 0 &&
      tracked_bytes_ > options_.max_tracked_bytes) {
    return TripLocked(Status::BudgetExhausted(
        "tracked memory budget exhausted: " + std::to_string(tracked_bytes_) +
        " bytes > " + std::to_string(options_.max_tracked_bytes)));
  }
  return Status::OK();
}

}  // namespace oodb
