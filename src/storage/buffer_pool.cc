#include "src/storage/buffer_pool.h"

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Process-wide hit/miss totals across every pool instance (per-pool counts
/// live in hits()/misses()). Resolved once; counters are never deallocated.
struct BufferMetrics {
  Counter* hits;
  Counter* misses;

  static const BufferMetrics& Get() {
    static const BufferMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      BufferMetrics m;
      m.hits = r.counter("oodb_buffer_pool_hits_total",
                         "Page accesses served from the buffer pool.");
      m.misses = r.counter("oodb_buffer_pool_misses_total",
                           "Page accesses that went to the simulated disk.");
      return m;
    }();
    return m;
  }
};

}  // namespace

// One page touch with mu_ held: returns true on a hit, false on a miss
// (after faulting the page in). The disk read stays inside the critical
// section so that the miss, its arm movement, and the eviction are one
// atomic event — concurrent workers observe a consistent LRU and a
// serializable read sequence.
bool BufferPool::AccessLocked(PageId page) {
  const size_t p = static_cast<size_t>(page);
  if (p >= frame_of_.size()) frame_of_.resize(p + 1, -1);
  int32_t f = frame_of_[p];
  if (f >= 0) {
    ToFront(f, true);
    return true;
  }
  disk_->Read(page);
  const bool evict =
      static_cast<int64_t>(frames_.size()) >= capacity_ && !frames_.empty();
  if (evict) {
    // At capacity every miss takes over the least recent page's frame.
    f = tail_;
    frame_of_[static_cast<size_t>(frames_[f].page)] = -1;
    frames_[f].page = page;
  } else {
    f = static_cast<int32_t>(frames_.size());
    frames_.push_back(Frame{page, -1, -1});
  }
  frame_of_[p] = f;
  ToFront(f, evict);
  return false;
}

// Links frame `f` at the most-recent end, unlinking it first if `linked`.
void BufferPool::ToFront(int32_t f, bool linked) {
  Frame& fr = frames_[f];
  if (linked) {
    (fr.prev >= 0 ? frames_[fr.prev].next : head_) = fr.next;
    (fr.next >= 0 ? frames_[fr.next].prev : tail_) = fr.prev;
  }
  fr.prev = -1;
  fr.next = head_;
  (head_ >= 0 ? frames_[head_].prev : tail_) = f;
  head_ = f;
}

Status BufferPool::Access(PageId page) {
  if (faults_ != nullptr) OODB_RETURN_IF_ERROR(faults_->OnPageAccess(page));
  MutexLock lock(mu_);
  if (AccessLocked(page)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    BufferMetrics::Get().hits->Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    BufferMetrics::Get().misses->Increment();
  }
  return Status::OK();
}

Status BufferPool::AccessMany(const PageId* pages, size_t n) {
  if (n == 0) return Status::OK();
  int64_t hits = 0, misses = 0;
  Status status = Status::OK();
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      // Per-page fault check in sequence, as n Access() calls would do:
      // pages before the faulting one are already touched and charged.
      if (faults_ != nullptr) {
        status = faults_->OnPageAccess(pages[i]);
        if (!status.ok()) break;
      }
      if (AccessLocked(pages[i])) {
        ++hits;
      } else {
        ++misses;
      }
    }
  }
  hits_.fetch_add(hits, std::memory_order_relaxed);
  misses_.fetch_add(misses, std::memory_order_relaxed);
  if (hits > 0) BufferMetrics::Get().hits->Increment(hits);
  if (misses > 0) BufferMetrics::Get().misses->Increment(misses);
  return status;
}

void BufferPool::Reset() {
  MutexLock lock(mu_);
  frame_of_.clear();
  frames_.clear();
  head_ = tail_ = -1;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace oodb
