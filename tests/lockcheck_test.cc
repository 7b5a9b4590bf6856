// Self-tests for the Debug-build lock-rank registry (src/common/mutex.h):
// each test seeds one concrete out-of-rank acquisition using the engine's
// real rank constants and asserts the registry reports exactly the
// offending rank pair, by name, at acquire time — on the single thread that
// commits the inversion, with no second thread racing the reverse edge.
// A Release build (OODB_LOCK_ORDER off) skips the whole suite.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/mutex.h"

namespace oodb {
namespace {

/// Captures every violation the registry reports while in scope, instead of
/// aborting. The handler is a plain function pointer, so captures travel
/// through a static; tests in this binary run sequentially.
class ViolationCapture {
 public:
  ViolationCapture() {
    captured().clear();
    prev_ = SetLockOrderHandler(&Record);
  }
  ~ViolationCapture() { SetLockOrderHandler(prev_); }

  static std::vector<LockOrderViolation>& captured() {
    static std::vector<LockOrderViolation> v;
    return v;
  }

 private:
  static void Record(const LockOrderViolation& v) {
    captured().push_back(v);
  }

  LockOrderHandler prev_;
};

class LockCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!LockOrderCheckingEnabled()) {
      GTEST_SKIP() << "lock-rank registry compiled out (OODB_LOCK_ORDER off)";
    }
  }
};

/// Acquires `outer` then `inner` in nested scopes and returns the
/// violations the registry reported.
std::vector<LockOrderViolation> AcquirePair(Mutex& outer, Mutex& inner) {
  ViolationCapture capture;
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  return ViolationCapture::captured();
}

void ExpectViolation(const std::vector<LockOrderViolation>& violations,
                     const LockRank& acquired, const LockRank& held) {
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].acquired_order, acquired.order);
  EXPECT_STREQ(violations[0].acquired_name, acquired.name);
  EXPECT_EQ(violations[0].held_order, held.order);
  EXPECT_STREQ(violations[0].held_name, held.name);
  // The report names the offending pair: "acquiring <inner> ... holding
  // <outer>" is the edge a reader greps the rank table for.
  EXPECT_NE(violations[0].ToString().find(acquired.name), std::string::npos);
  EXPECT_NE(violations[0].ToString().find(held.name), std::string::npos);
}

// --- seeded inversions over the engine's real rank pairs ---

TEST_F(LockCheckTest, MetricsThenBufferPoolIsCaught) {
  // Correct order is buffer_pool -> metrics (statistics resolve under the
  // subsystem lock); the reverse edge would deadlock against AccessMany.
  Mutex metrics(lock_rank::kMetrics);
  Mutex buffer(lock_rank::kBufferPool);
  ExpectViolation(AcquirePair(metrics, buffer), lock_rank::kBufferPool,
                  lock_rank::kMetrics);
}

TEST_F(LockCheckTest, PendingThenPartitionIsCaught) {
  // DispatchLocked holds exchange.part while bumping the pending count; a
  // path that took pending first would invert it.
  Mutex pending(lock_rank::kExchangePending);
  Mutex part(lock_rank::kExchangePartition);
  ExpectViolation(AcquirePair(pending, part), lock_rank::kExchangePartition,
                  lock_rank::kExchangePending);
}

TEST_F(LockCheckTest, BatchPoolThenBatchQueueIsCaught) {
  // BatchQueue::Abort drains to the BatchPool under the queue lock
  // (batch_queue -> batch_pool); a pool path that re-entered a queue would
  // close a cycle.
  Mutex pool(lock_rank::kBatchPool);
  Mutex queue(lock_rank::kBatchQueue);
  ExpectViolation(AcquirePair(pool, queue), lock_rank::kBatchQueue,
                  lock_rank::kBatchPool);
}

TEST_F(LockCheckTest, MetricsThenGovernorIsCaught) {
  // A governor trip resolves its metrics counters under the governor lock
  // (governor -> metrics); the reverse is the textbook two-lock deadlock.
  Mutex metrics(lock_rank::kMetrics);
  Mutex governor(lock_rank::kGovernor);
  ExpectViolation(AcquirePair(metrics, governor), lock_rank::kGovernor,
                  lock_rank::kMetrics);
}

TEST_F(LockCheckTest, GovernorThenPlanCacheIsCaught) {
  Mutex governor(lock_rank::kGovernor);
  Mutex cache(lock_rank::kPlanCache);
  ExpectViolation(AcquirePair(governor, cache), lock_rank::kPlanCache,
                  lock_rank::kGovernor);
}

TEST_F(LockCheckTest, StorageFaultThenBufferPoolIsCaught) {
  // AccessMany consults the fault injector under the pool lock
  // (buffer_pool -> storage_fault); an injector callback that touched the
  // pool would invert it.
  Mutex fault(lock_rank::kStorageFault);
  Mutex buffer(lock_rank::kBufferPool);
  ExpectViolation(AcquirePair(fault, buffer), lock_rank::kBufferPool,
                  lock_rank::kStorageFault);
}

TEST_F(LockCheckTest, ExchangeErrorThenPartitionIsCaught) {
  Mutex error(lock_rank::kExchangeError);
  Mutex part(lock_rank::kExchangePartition);
  ExpectViolation(AcquirePair(error, part), lock_rank::kExchangePartition,
                  lock_rank::kExchangeError);
}

// --- shapes beyond a simple reversed pair ---

TEST_F(LockCheckTest, RecursiveSelfLockIsCaught) {
  // Strict ordering (held >= acquiring is a violation) makes a recursive
  // acquisition of one mutex — guaranteed UB-or-deadlock on std::mutex —
  // a reported violation rather than a hang. Manual Lock/Unlock because a
  // scoped lock cannot express the bug, and the underlying std::mutex must
  // not actually be taken twice.
  ViolationCapture capture;
  Mutex governor(lock_rank::kGovernor);
  governor.Lock();
  lock_order::OnAcquire(governor.rank());  // the re-acquisition, registry-only
  lock_order::OnRelease(governor.rank());
  governor.Unlock();
  ExpectViolation(ViolationCapture::captured(), lock_rank::kGovernor,
                  lock_rank::kGovernor);
}

TEST_F(LockCheckTest, SameRankTwoInstancesIsCaught) {
  // Two plan caches share one rank because no code path nests them;
  // nesting two instances is therefore a violation by design (an ABBA
  // deadlock between caches needs no rank inversion).
  Mutex cache_a(lock_rank::kPlanCache);
  Mutex cache_b(lock_rank::kPlanCache);
  ExpectViolation(AcquirePair(cache_a, cache_b), lock_rank::kPlanCache,
                  lock_rank::kPlanCache);
}

TEST_F(LockCheckTest, ThreeLockChainReportsHighestHeldRank) {
  // part(20) -> metrics(90) is legal; then acquiring governor(50) violates
  // against metrics (the highest held rank is the witness named, not the
  // merely-lower part lock).
  ViolationCapture capture;
  Mutex part(lock_rank::kExchangePartition);
  Mutex metrics(lock_rank::kMetrics);
  Mutex governor(lock_rank::kGovernor);
  {
    MutexLock a(part);
    MutexLock b(metrics);
    MutexLock c(governor);
  }
  ExpectViolation(ViolationCapture::captured(), lock_rank::kGovernor,
                  lock_rank::kMetrics);
}

TEST_F(LockCheckTest, UniqueLockRelockIsChecked) {
  // UniqueLock's manual Unlock/Lock cycle (the WorkerPool task-execution
  // shape) re-checks rank on every re-acquisition: dropping the pool lock,
  // taking a higher lock, then re-locking the pool inverts the order.
  ViolationCapture capture;
  Mutex worker(lock_rank::kWorkerPool);
  Mutex buffer(lock_rank::kBufferPool);
  {
    UniqueLock lock(worker);
    lock.Unlock();
    MutexLock task(buffer);
    lock.Lock();  // re-acquiring worker_pool(45) while holding buffer(60)
  }
  ExpectViolation(ViolationCapture::captured(), lock_rank::kWorkerPool,
                  lock_rank::kBufferPool);
}

// --- negative cases: rank-legal nesting stays silent ---

TEST_F(LockCheckTest, InOrderNestingReportsNothing) {
  ViolationCapture capture;
  Mutex part(lock_rank::kExchangePartition);
  Mutex error(lock_rank::kExchangeError);
  Mutex queue(lock_rank::kBatchQueue);
  Mutex pool(lock_rank::kBatchPool);
  Mutex metrics(lock_rank::kMetrics);
  {
    // The deepest real chain in the engine: RunAttempt's deliver path.
    MutexLock a(part);
    MutexLock b(error);
    MutexLock c(queue);
    MutexLock d(pool);
    MutexLock e(metrics);
  }
  EXPECT_TRUE(ViolationCapture::captured().empty());
}

TEST_F(LockCheckTest, SequentialReacquisitionReportsNothing) {
  // Dropping back to rank 0 between acquisitions is the legal way to touch
  // many same-rank instances (one session probing two plan caches in turn).
  ViolationCapture capture;
  Mutex cache_a(lock_rank::kPlanCache);
  Mutex cache_b(lock_rank::kPlanCache);
  { MutexLock a(cache_a); }
  { MutexLock b(cache_b); }
  EXPECT_TRUE(ViolationCapture::captured().empty());
}

TEST_F(LockCheckTest, CondVarWaitKeepsHeldSetBalanced) {
  // A CondVar wait releases and reacquires the mutex internally without
  // touching the registry; afterwards the held set must still be balanced
  // (no phantom entry, no lost entry).
  ViolationCapture capture;
  Mutex worker(lock_rank::kWorkerPool);
  CondVar cv;
  {
    UniqueLock lock(worker);
    cv.NotifyAll();  // nothing waits; just exercise the pair
    MutexLock metrics_ok(*[] {
      static Mutex m(lock_rank::kMetrics);
      return &m;
    }());
  }
  {
    // After the scope the held set is empty again: a fresh in-order pair
    // reports nothing.
    MutexLock a(worker);
  }
  EXPECT_TRUE(ViolationCapture::captured().empty());
}

}  // namespace
}  // namespace oodb
