// A simple LRU buffer pool over the simulated disk.
#ifndef OODB_STORAGE_BUFFER_POOL_H_
#define OODB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/storage/disk_model.h"
#include "src/storage/fault.h"

namespace oodb {

/// LRU page cache: hits are free, misses hit the disk model and may evict.
/// The LRU is flat (a page -> frame vector and linked frames recycled in
/// place), so no access allocates or hashes once it has grown.
/// With a fault injector attached, any access may fail with kStorageFault
/// before touching the LRU (the page is treated as unreadable media).
///
/// Thread safety: Access() may be called concurrently from Exchange worker
/// threads — the LRU structure is guarded by a mutex and the hit/miss
/// statistics are atomic (readable lock-free while workers run). Reset()
/// and set_fault_injector() are configuration calls and must not race with
/// in-flight accesses.
class BufferPool {
 public:
  BufferPool(DiskModel* disk, int64_t capacity_pages,
             FaultInjector* faults = nullptr)
      : disk_(disk), capacity_(capacity_pages), faults_(faults) {}

  /// Touches `page`, faulting it in if absent. Thread-safe.
  Status Access(PageId page);

  /// Touches `n` pages in order under one lock acquisition, with the same
  /// per-page hit/miss/eviction sequence as n Access() calls — the batched
  /// entry point for ReadMany's page runs (one lock and one statistics
  /// update per scan chunk instead of one per page run). Thread-safe.
  Status AccessMany(const PageId* pages, size_t n);

  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t resident() const {
    MutexLock lock(mu_);
    return static_cast<int64_t>(frames_.size());
  }
  int64_t capacity() const { return capacity_; }

  void Reset();

 private:
  struct Frame {
    PageId page;
    int32_t prev, next;  // more / less recent neighbour, -1 at the ends
  };
  bool AccessLocked(PageId page) REQUIRES(mu_);
  void ToFront(int32_t f, bool linked) REQUIRES(mu_);

  DiskModel* disk_;
  int64_t capacity_;
  FaultInjector* faults_;
  mutable Mutex mu_{
      lock_rank::kBufferPool};  ///< guards the LRU (and the miss read)
  std::vector<int32_t> frame_of_ GUARDED_BY(mu_);  // page -> frame, -1 absent
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  int32_t head_ GUARDED_BY(mu_) = -1;  // most recent frame
  int32_t tail_ GUARDED_BY(mu_) = -1;  // least recent frame (the victim)
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace oodb

#endif  // OODB_STORAGE_BUFFER_POOL_H_
