#include "src/exec/batch_pool.h"

#include <utility>

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Recycling effectiveness for the metrics snapshot: Take() hits (arena
/// reused) vs misses (fresh allocation), and arenas Return() parks
/// (recycled) or frees because the pool is full (dropped). Steady-state
/// execution should show hits climbing and misses flat — the zero-alloc
/// invariant exec_test asserts — and an execution that returns every arena
/// it took adds as much to hits + misses as to recycled + dropped, the
/// balance chaos_test asserts. Resolved once; never freed.
struct BatchPoolMetrics {
  Counter* hits;
  Counter* misses;
  Counter* recycled;
  Counter* dropped;

  static const BatchPoolMetrics& Get() {
    static const BatchPoolMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      BatchPoolMetrics m;
      m.hits = r.counter("oodb_batch_pool_hits_total",
                         "Take() calls served by a pooled arena.");
      m.misses = r.counter("oodb_batch_pool_misses_total",
                           "Take() calls that allocated a fresh arena.");
      m.recycled = r.counter("oodb_batch_pool_recycled_total",
                             "Arenas parked for reuse by Return().");
      m.dropped = r.counter("oodb_batch_pool_dropped_total",
                            "Arenas Return() freed because the pool was full.");
      return m;
    }();
    return m;
  }
};

}  // namespace

BatchPool& BatchPool::Instance() {
  static BatchPool pool;
  return pool;
}

TupleBatch BatchPool::Take(int width, size_t capacity) {
  {
    MutexLock lock(mu_);
    // Newest-first: the most recently returned arena is the most likely to
    // match the running query's shape (and to still be cache-warm).
    for (size_t i = pool_.size(); i > 0; --i) {
      TupleBatch& b = pool_[i - 1];
      if (b.width() == width && b.capacity() == capacity) {
        TupleBatch out = std::move(b);
        pool_.erase(pool_.begin() + static_cast<ptrdiff_t>(i - 1));
        out.Clear();
        BatchPoolMetrics::Get().hits->Increment();
        return out;
      }
    }
  }
  BatchPoolMetrics::Get().misses->Increment();
  return TupleBatch(width, capacity);
}

void BatchPool::Return(TupleBatch&& batch) {
  if (batch.capacity() == 0) return;  // nothing worth pooling
  MutexLock lock(mu_);
  if (pool_.size() < kMaxPooled) {
    pool_.push_back(std::move(batch));
    BatchPoolMetrics::Get().recycled->Increment();
  } else {
    BatchPoolMetrics::Get().dropped->Increment();
  }
}

}  // namespace oodb
