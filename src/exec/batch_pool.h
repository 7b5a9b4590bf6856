// Process-wide recycling pool of TupleBatch arenas.
//
// A TupleBatch arena is width × capacity Slots — tens of kilobytes at the
// default batch size — and constructing one value-initializes every slot.
// Operators recycle their own arenas across Next() calls, but arenas that
// cross a query boundary (Exchange stream batches, the executor's drain
// batch) used to be freshly allocated per execution, putting an
// allocate+clear storm on the latency path of short queries. The pool keeps
// retired arenas alive across executions: Take() returns a matching-shape
// arena if one is pooled (AppendRow clears rows on use, so stale contents
// are harmless), and Return() parks an arena instead of freeing it.
#ifndef OODB_EXEC_BATCH_POOL_H_
#define OODB_EXEC_BATCH_POOL_H_

#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/exec/tuple.h"

namespace oodb {

class BatchPool {
 public:
  /// The shared pool (thread-safe; Exchange workers hit it concurrently).
  static BatchPool& Instance();

  /// Returns a pooled arena of exactly (width, capacity), else a fresh one.
  TupleBatch Take(int width, size_t capacity);

  /// Parks `batch` for reuse. Returns past kMaxPooled are freed (and
  /// counted as dropped).
  void Return(TupleBatch&& batch);

 private:
  /// Bounds pool memory; at the default shape this is a few megabytes.
  static constexpr size_t kMaxPooled = 64;

  Mutex mu_{lock_rank::kBatchPool};
  std::vector<TupleBatch> pool_ GUARDED_BY(mu_);
};

}  // namespace oodb

#endif  // OODB_EXEC_BATCH_POOL_H_
