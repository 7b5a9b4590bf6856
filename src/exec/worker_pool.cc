#include "src/exec/worker_pool.h"

#include <utility>

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Pool activity for the metrics snapshot: cumulative tasks and the
/// high-water thread count. Resolved once; metrics are never deallocated.
struct PoolMetrics {
  Counter* tasks;
  Gauge* threads;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      PoolMetrics m;
      m.tasks = r.counter("oodb_worker_pool_tasks_total",
                          "Tasks submitted to the shared worker pool.");
      m.threads = r.gauge("oodb_worker_pool_threads",
                          "Threads the shared worker pool has spawned.");
      return m;
    }();
    return m;
  }
};

}  // namespace

WorkerPool& WorkerPool::Instance() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  // Claim the threads under the lock, then join them unlocked: a joining
  // worker must reacquire mu_ to observe stop_, so joining while holding it
  // would deadlock (and the analysis would rightly reject the unguarded
  // threads_ walk the old code did).
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  cv_.NotifyAll();
  for (std::thread& t : threads) t.join();
}

void WorkerPool::Submit(std::function<void()> fn) {
  PoolMetrics::Get().tasks->Increment();
  {
    MutexLock lock(mu_);
    tasks_.push_back(std::move(fn));
    // Idle workers each take one queued task; a task beyond them needs a
    // new thread, or a merging Exchange's last producer could wait for a
    // worker its blocked siblings hold while the consumer waits on it.
    if (tasks_.size() > idle_) {
      threads_.emplace_back(&WorkerPool::Loop, this);
      PoolMetrics::Get().threads->Set(static_cast<double>(threads_.size()));
    }
  }
  cv_.NotifyOne();
}

void WorkerPool::Loop() {
  UniqueLock lock(mu_);
  while (true) {
    ++idle_;
    while (tasks_.empty() && !stop_) cv_.Wait(lock);
    --idle_;
    if (stop_) return;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.Unlock();
    task();
    lock.Lock();
  }
}

}  // namespace oodb
