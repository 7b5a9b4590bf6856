// Process-wide pool of persistent worker threads for the Exchange operator.
//
// Spawning OS threads per query puts thread create/join (and first-touch
// stack faults) on the latency path of every parallel execution — a fixed
// cost that dwarfs the per-batch work for small and medium inputs. The pool
// keeps workers alive across queries: Exchange submits one task per
// partition and waits on its own completion count instead of joining
// threads.
//
// The pool grows lazily — a new thread is spawned only when a submitted
// task finds no idle worker left to take it — so it converges on the peak
// concurrent demand (the largest DOP in flight) and never holds more. Pool threads may
// block inside tasks (producers blocking on a full batch queue is normal);
// that is safe because the blocked producer's consumer is never a pool task.
#ifndef OODB_EXEC_WORKER_POOL_H_
#define OODB_EXEC_WORKER_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace oodb {

class WorkerPool {
 public:
  /// The shared pool. Constructed on first use; joined at process exit
  /// (by which time every Exchange has already waited out its tasks).
  static WorkerPool& Instance();

  ~WorkerPool();

  /// Enqueues `fn` for execution on a pool thread. Never blocks beyond the
  /// queue lock; spawns a new thread when the queued tasks outnumber the
  /// idle workers, so every task starts without waiting for another.
  void Submit(std::function<void()> fn);

 private:
  WorkerPool() = default;
  void Loop();

  Mutex mu_{lock_rank::kWorkerPool};
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
  size_t idle_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace oodb

#endif  // OODB_EXEC_WORKER_POOL_H_
