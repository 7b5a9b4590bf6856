// QueryGovernor: per-query resource governance — a steady-clock deadline, a
// cooperative cancellation token, and hard budgets for optimizer search
// effort (memo groups / m-exprs / costed physical alternatives) and
// execution effort (output rows, simulated page reads, tracked buffered
// bytes). The paper concedes that full Volcano search cost grows with query
// complexity ("<1 sec on today's workstations" is a goal, not a guarantee);
// a production optimizer must bound planning and execution time and degrade
// gracefully instead of stalling. The governor is checked at the search
// engine's Explore fixpoint loop, at every OptimizeGroup entry, and at every
// executor Next() call; a trip returns a typed Status (kDeadlineExceeded,
// kBudgetExhausted, kCancelled) instead of unbounded work. A null governor
// pointer disables every check, preserving the seed behavior bit for bit.
#ifndef OODB_COMMON_GOVERNOR_H_
#define OODB_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace oodb {

/// Cross-thread cancellation handle. The issuing side calls RequestCancel();
/// the governed query observes it at its next governor check and fails with
/// kCancelled. Shareable between the controller and any number of queries.
struct CancelToken {
  std::atomic<bool> cancelled{false};

  void RequestCancel() { cancelled.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled.load(std::memory_order_relaxed);
  }
};

/// Governor configuration. Every limit defaults to "unlimited" (0), so a
/// default-constructed GovernorOptions is inert and Session takes the exact
/// seed code path.
struct GovernorOptions {
  /// Wall-clock (steady_clock) deadline for the whole query, optimization
  /// and execution combined. <= 0 disables.
  double deadline_ms = 0.0;
  /// Optimizer budgets: memo size and costed physical alternatives. 0
  /// disables each.
  int64_t max_memo_groups = 0;
  int64_t max_memo_mexprs = 0;
  int64_t max_phys_alternatives = 0;
  /// Executor budgets: output rows, simulated page reads, and bytes of
  /// tuples buffered by blocking operators (hash build / sort / nested
  /// loops). 0 disables each.
  int64_t max_exec_rows = 0;
  int64_t max_exec_pages = 0;
  int64_t max_tracked_bytes = 0;
  /// Retry budget: each execution re-attempt (Session retry ladder or
  /// mid-query re-plan) charges one retry. Exceeding the budget is a
  /// terminal kBudgetExhausted. 0 disables the budget (retries are then
  /// bounded by RetryPolicy and the deadline alone).
  int64_t max_retries = 0;
  /// Optional external cancellation; observed at every governor check.
  std::shared_ptr<CancelToken> cancel;
  /// When an *optimizer* budget or the deadline trips during planning,
  /// Session falls back to the greedy baseline planner and annotates the
  /// plan as degraded instead of failing the query. Execution-phase trips
  /// and cancellation always surface as errors.
  bool degrade_to_greedy = true;

  /// True when any limit or a cancel token is configured — i.e. when a
  /// QueryGovernor must be constructed at all.
  bool enabled() const {
    return deadline_ms > 0.0 || max_memo_groups > 0 || max_memo_mexprs > 0 ||
           max_phys_alternatives > 0 || max_exec_rows > 0 ||
           max_exec_pages > 0 || max_tracked_bytes > 0 || max_retries > 0 ||
           cancel != nullptr;
  }
};

/// Trip counters and charged-work counters, exposed on SearchStats /
/// ExecStats so callers can see why and how hard a query was throttled.
struct GovernorStats {
  int64_t deadline_trips = 0;
  int64_t budget_trips = 0;
  int64_t cancel_trips = 0;
  int64_t rows_charged = 0;
  int64_t pages_charged = 0;
  int64_t alternatives_charged = 0;
  int64_t tracked_bytes_peak = 0;
  int64_t retries_charged = 0;

  int64_t trips() const {
    return deadline_trips + budget_trips + cancel_trips;
  }
};

/// True for the status codes a governor (or fault injector) produces. Used
/// by the search engine to propagate trips out of branch-and-bound recovery
/// paths that swallow ordinary "no plan here" errors.
inline bool IsGovernorStatus(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kBudgetExhausted ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kStorageFault ||
         code == StatusCode::kWorkerFault;
}

/// One query's governor. Armed (deadline anchored) at construction; checked
/// cooperatively from the search engine and executor. Trips are sticky: once
/// a limit is exceeded every later check returns the same typed Status, so a
/// trip swallowed by an intermediate recovery path resurfaces at the next
/// checkpoint. Thread-safe: Exchange workers share one governor, so a trip
/// on any worker is observed by every other worker (and the consumer) at
/// its next checkpoint — the sticky trip drains the whole pipeline.
class QueryGovernor {
 public:
  explicit QueryGovernor(GovernorOptions options);

  // --- optimizer-side checkpoints ---

  /// Explore fixpoint checkpoint: cancellation, deadline, memo budgets.
  Status CheckSearch(int64_t memo_groups, int64_t memo_mexprs);
  /// OptimizeGroup entry checkpoint: cancellation and deadline.
  Status CheckOptimizeEntry();
  /// Charges one costed physical alternative against its budget.
  Status ChargeAlternative();

  // --- executor-side checkpoints ---

  /// Per-batch checkpoint: cancellation, deadline, simulated-page budget.
  /// Charges `new_pages`, the pages the calling pipeline read since its
  /// last checkpoint; every pipeline's reads count against one budget.
  Status CheckExec(int64_t new_pages);
  /// Charges `n` output rows against the row budget.
  Status ChargeRows(int64_t n);
  /// Charges `bytes` of tuples buffered by a blocking operator against the
  /// tracked-memory budget (a high-water mark; buffers are not credited
  /// back on release).
  Status ChargeTrackedBytes(int64_t bytes);
  /// Charges one execution re-attempt (Session retry or re-plan) against
  /// the retry budget.
  Status ChargeRetry();

  const GovernorOptions& options() const { return options_; }
  /// Snapshot of the trip/charge counters (copied under the lock).
  GovernorStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }
  /// Non-OK after the first trip (the sticky trip status).
  Status trip_status() const {
    MutexLock lock(mu_);
    return trip_;
  }

 private:
  /// Returns the sticky trip, or records `status` as the trip and counts
  /// it.
  Status TripLocked(Status status) REQUIRES(mu_);
  Status CheckCancelAndDeadlineLocked(const char* where) REQUIRES(mu_);

  GovernorOptions options_;
  std::chrono::steady_clock::time_point armed_at_;
  std::chrono::steady_clock::time_point deadline_;
  mutable Mutex mu_{lock_rank::kGovernor};  ///< guards everything below
  Status trip_ GUARDED_BY(mu_);  // OK until the first trip, then sticky
  int64_t rows_ GUARDED_BY(mu_) = 0;
  int64_t pages_ GUARDED_BY(mu_) = 0;
  int64_t alternatives_ GUARDED_BY(mu_) = 0;
  int64_t tracked_bytes_ GUARDED_BY(mu_) = 0;
  int64_t retries_ GUARDED_BY(mu_) = 0;
  GovernorStats stats_ GUARDED_BY(mu_);
};

}  // namespace oodb

#endif  // OODB_COMMON_GOVERNOR_H_
