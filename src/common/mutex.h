// Annotated mutex wrappers and the debug-build lock-rank registry: the
// concurrency layer's only sanctioned locking primitives.
//
// Every mutex in the engine is an oodb::Mutex carrying (a) Clang Thread
// Safety capability annotations, so -Wthread-safety proves at compile time
// that each GUARDED_BY field is only touched with its lock held, and (b) a
// static LockRank from the global acquisition order below, so Debug builds
// (OODB_LOCK_ORDER) detect out-of-rank acquisition — the edge that would
// close a deadlock cycle — at the moment of acquisition, on the thread that
// commits it, whether or not a second thread ever races the reverse edge.
// Release builds compile the registry out; the wrappers then inline to the
// underlying std primitives.
//
// Raw std::mutex / std::lock_guard / std::unique_lock / std::shared_mutex /
// std::shared_lock / std::condition_variable are rejected repo-wide by
// scripts/lint_locks.py outside this header and its .cc, so the discipline
// cannot erode.
#ifndef OODB_COMMON_MUTEX_H_
#define OODB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>

#include "src/common/thread_annotations.h"

namespace oodb {

/// A position in the global lock-acquisition order plus a report-friendly
/// name. Locks may only be acquired in strictly increasing rank order per
/// thread; a total order admits no cycles, so enforcing it at every acquire
/// is complete deadlock prevention across ranks.
struct LockRank {
  int order;
  const char* name;
};

namespace lock_rank {

// The global acquisition order (outermost first). A thread holding a lock
// of rank r may only acquire locks of rank strictly greater than r. The
// order mirrors the call graph's nesting today:
//
//   plan_cache        -> metrics                  (counters under lock)
//   exchange.batch_queue -> batch_pool            (Abort drains to pool)
//   buffer_pool       -> storage_fault            (AccessMany fault check)
//   governor / exec_fault / batch_pool / *        -> metrics
//
// A buffer-pool miss charges the caller's own SimStream under the pool
// lock; streams are thread-private and take no lock.
//
// Gaps between ranks leave room for future locks without renumbering.

inline constexpr LockRank kPlanCache{10, "plan_cache"};
inline constexpr LockRank kExchangePartition{20, "exchange.part"};
inline constexpr LockRank kExchangeError{30, "exchange.error"};
inline constexpr LockRank kExchangePending{35, "exchange.pending"};
inline constexpr LockRank kBatchQueue{40, "exchange.batch_queue"};
inline constexpr LockRank kWorkerPool{45, "worker_pool"};
inline constexpr LockRank kGovernor{50, "governor"};
inline constexpr LockRank kExecFault{55, "exec_fault"};
inline constexpr LockRank kBufferPool{60, "buffer_pool"};
inline constexpr LockRank kStorageFault{70, "storage_fault"};
inline constexpr LockRank kBatchPool{80, "batch_pool"};
inline constexpr LockRank kStoreColumns{85, "object_store.columns"};
inline constexpr LockRank kMetrics{90, "metrics"};

}  // namespace lock_rank

/// What the rank registry reports: the rank being acquired and the
/// highest-ranked lock already held (the pair whose order is inverted).
struct LockOrderViolation {
  int acquired_order = 0;
  const char* acquired_name = "";
  int held_order = 0;
  const char* held_name = "";

  /// "lock-rank violation: acquiring NAME (rank A) while holding NAME
  /// (rank B)" — the offending rank pair, by name.
  std::string ToString() const;
};

/// Violation sink. The default handler prints the violation and aborts;
/// the lockcheck self-tests install a capturing handler instead. Returns
/// the previous handler; passing nullptr restores the default.
using LockOrderHandler = void (*)(const LockOrderViolation&);
LockOrderHandler SetLockOrderHandler(LockOrderHandler handler);

/// True when this build enforces the lock-rank registry (OODB_LOCK_ORDER,
/// default ON in Debug). The capability annotations are independent of this
/// and always present under Clang.
inline constexpr bool LockOrderCheckingEnabled() {
#if defined(OODB_LOCK_ORDER)
  return true;
#else
  return false;
#endif
}

namespace lock_order {
#if defined(OODB_LOCK_ORDER)
/// Checks `rank` against this thread's held set and records it. Called
/// before the underlying acquire so an inversion is reported even when the
/// acquire would deadlock.
void OnAcquire(const LockRank& rank);
/// Removes the most recent held entry of `rank` from this thread's set.
void OnRelease(const LockRank& rank);
#else
inline void OnAcquire(const LockRank&) {}
inline void OnRelease(const LockRank&) {}
#endif
}  // namespace lock_order

/// Exclusive mutex. Constructed with its static rank; prefer the scoped
/// MutexLock / UniqueLock over manual Lock/Unlock pairs.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lock_order::OnAcquire(rank_);
    mu_.lock();
  }
  // The registry forgets the lock before it is freed: once mu_ is unlocked
  // a waiter may destroy *this, so rank_ must not be read after.
  void Unlock() RELEASE() {
    lock_order::OnRelease(rank_);
    mu_.unlock();
  }

  const LockRank& rank() const { return rank_; }

 private:
  friend class CondVar;
  friend class UniqueLock;
  std::mutex& native() { return mu_; }

  std::mutex mu_;
  LockRank rank_;
};

/// Scoped exclusive lock (the std::lock_guard shape).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock that can be waited on (CondVar) and temporarily
/// released (the std::unique_lock shape). Must be locked at destruction or
/// after an explicit Unlock() with no re-Lock() — the analysis checks the
/// release/acquire pairing along every path.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu)
      : mu_(&mu), lock_(mu.native(), std::defer_lock) {
    lock_order::OnAcquire(mu_->rank());
    lock_.lock();
  }
  ~UniqueLock() RELEASE() {
    if (lock_.owns_lock()) {
      lock_order::OnRelease(mu_->rank());
      lock_.unlock();
    }
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void Lock() ACQUIRE() {
    lock_order::OnAcquire(mu_->rank());
    lock_.lock();
  }
  void Unlock() RELEASE() {
    lock_order::OnRelease(mu_->rank());
    lock_.unlock();
  }

 private:
  friend class CondVar;
  Mutex* mu_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over a UniqueLock. Waits release and reacquire the
/// underlying mutex internally; the lock is held again when Wait returns,
/// so from the rank registry's view the waiter holds its lock throughout
/// (a blocked thread cannot acquire anything else anyway). Predicate waits
/// are spelled as explicit `while (!cond) cv.Wait(lock);` loops at the call
/// sites so the guarded reads in `cond` stay visible to the analysis.
class CondVar {
 public:
  void Wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

  /// Waits until notified (true) or `deadline` passed (false). Callers loop
  /// on their predicate against a fixed deadline, so spurious wakeups cost
  /// one re-check, never extra waiting time.
  template <typename Clock, typename Duration>
  bool WaitUntil(UniqueLock& lock,
                 const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace oodb

#endif  // OODB_COMMON_MUTEX_H_
