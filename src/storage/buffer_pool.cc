#include "src/storage/buffer_pool.h"

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Process-wide hit/miss totals across every pool instance (per-pipeline
/// counts live on each SimStream). Resolved once; counters are never
/// deallocated.
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
// (after faulting the page in; the caller charges the read).
bool BufferPool::AccessLocked(PageId page) {
  const size_t p = static_cast<size_t>(page);
  if (p >= frame_of_.size()) frame_of_.resize(p + 1, -1);
  int32_t f = frame_of_[p];
  if (f >= 0) {
    ToFront(f, true);
    return true;
  }
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

Status BufferPool::AccessMany(const PageId* pages, size_t n,
                              SimStream* stream) {
  if (n == 0) return Status::OK();
  int64_t hits = 0, misses = 0;
  Status status = Status::OK();
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      // Per-page fault check in sequence: pages before the faulting one are
      // already touched and charged.
      if (faults_ != nullptr) {
        status = faults_->OnPageAccess(pages[i]);
        if (!status.ok()) break;
      }
      if (AccessLocked(pages[i])) {
        ++hits;
      } else {
        ++misses;
        stream->Read(pages[i], *timing_);
      }
    }
  }
  stream->buffer_hits += hits;
  if (hits > 0) BufferMetrics::Get().hits->Increment(hits);
  if (misses > 0) BufferMetrics::Get().misses->Increment(misses);
  return status;
}

void BufferPool::Reset() {
  MutexLock lock(mu_);
  frame_of_.clear();
  frames_.clear();
  head_ = tail_ = -1;
}

}  // namespace oodb
