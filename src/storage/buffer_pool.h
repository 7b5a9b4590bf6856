// A simple LRU buffer pool over the simulated disk.
#ifndef OODB_STORAGE_BUFFER_POOL_H_
#define OODB_STORAGE_BUFFER_POOL_H_

#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/storage/disk_model.h"
#include "src/storage/fault.h"

namespace oodb {

/// LRU page cache: hits are free, misses are physical reads and may evict.
/// The LRU is flat (a page -> frame vector and linked frames recycled in
/// place), so no access allocates or hashes once it has grown.
/// With a fault injector attached, any access may fail with kStorageFault
/// before touching the LRU (the page is treated as unreadable media).
///
/// Thread safety: AccessMany() may be called concurrently from Exchange
/// worker threads — the LRU structure is guarded by a mutex. Hits and misses
/// are counted on the caller's stream, which only the calling thread
/// touches. Reset() and set_fault_injector() are configuration calls and
/// must not race with in-flight accesses.
class BufferPool {
 public:
  BufferPool(const CostModelOptions* timing, int64_t capacity_pages,
             FaultInjector* faults = nullptr)
      : timing_(timing), capacity_(capacity_pages), faults_(faults) {}

  /// Touches `n` pages in order under one lock acquisition. A hit counts on
  /// `stream`; a miss faults the page in and is classified on `stream`'s
  /// disk arm and charged to its clock. Thread-safe.
  Status AccessMany(const PageId* pages, size_t n, SimStream* stream);

  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

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

  const CostModelOptions* timing_;
  int64_t capacity_;
  FaultInjector* faults_;
  mutable Mutex mu_{
      lock_rank::kBufferPool};  ///< guards the LRU
  std::vector<int32_t> frame_of_ GUARDED_BY(mu_);  // page -> frame, -1 absent
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  int32_t head_ GUARDED_BY(mu_) = -1;  // most recent frame
  int32_t tail_ GUARDED_BY(mu_) = -1;  // least recent frame (the victim)
};

}  // namespace oodb

#endif  // OODB_STORAGE_BUFFER_POOL_H_
