// Iterator-model (open/next/close) execution operators over the simulated
// object store — one per physical algebra operator. The module transfers
// "query execution concepts and algorithms from the Volcano query execution
// module" (the paper's future-work item 5), closing the loop so optimized
// plans can actually run.
//
// Operators are batch-at-a-time: Next() fills a caller-owned TupleBatch and
// returns the number of rows produced. A return of 0 means end of stream
// and is sticky; short non-empty batches are legal mid-stream (a selective
// filter still loops internally so it never returns an empty batch before
// EOS). Batching amortizes virtual dispatch, governor checkpoints, and
// simulated-clock updates over exec_batch_size rows, and is the unit of
// transfer through the Exchange operator's cross-thread queues.
#ifndef OODB_EXEC_OPERATORS_H_
#define OODB_EXEC_OPERATORS_H_

#include <memory>

#include "src/common/governor.h"
#include "src/exec/exec_fault.h"
#include "src/exec/tuple.h"
#include "src/storage/object_store.h"
#include "src/volcano/plan.h"

namespace oodb {

class ExecProfile;

/// The iterator interface.
class ExecNode {
 public:
  virtual ~ExecNode() = default;
  virtual Status Open() = 0;
  /// Clears `out` and fills it with up to out->capacity() rows. Returns the
  /// number of rows produced; 0 is end of stream (sticky).
  virtual Result<size_t> Next(TupleBatch* out) = 0;
  virtual void Close() = 0;
};

/// Shared state for all nodes of one executing (sub-)plan. Exchange builds
/// one ExecEnv per worker: the store/ctx/governor are shared (each
/// internally synchronized), while `stream` points at a worker-private
/// SimStream merged into the consumer's after the worker joins, and the
/// partition fields carve the driver scan into disjoint contiguous chunks.
struct ExecEnv {
  ObjectStore* store = nullptr;
  QueryContext* ctx = nullptr;
  QueryGovernor* governor = nullptr;

  /// The pipeline's accounting stream: every CPU charge and every page read
  /// of this (sub-)plan lands on it. The serial drain uses the store's
  /// stream; each Exchange worker a private one, so accounting never races.
  SimStream* stream = nullptr;

  /// Rows per batch for every operator of this tree (the exec_batch_size
  /// knob; capacity of internal child-facing batches).
  size_t batch_size = TupleBatch::kDefaultCapacity;

  /// Top-k fast paths (the exec.topk knob). Off, TopKExec abandons the
  /// bounded heap and the streaming first-k cutoff for the oracle
  /// strategy — buffer every row, stable-sort, truncate — which the parity
  /// suite diffs against the fast paths row for row. Results are identical;
  /// simulated charges honestly follow the naive algorithm, so this is a
  /// testing knob, not a tuning one.
  bool topk = true;

  /// EXPLAIN ANALYZE collector (null = off, the zero-overhead default: no
  /// decorators are built and every code path is bit-identical). When set,
  /// BuildExecNode wraps each operator in a recording decorator writing
  /// into this profile; Exchange workers substitute a private profile
  /// merged at join, mirroring `stream`.
  ExecProfile* profile = nullptr;

  /// Partitioning for Exchange workers: the scan built from the plan node
  /// at address `partition_node` yields the contiguous chunk
  /// [n*w/k, n*(w+1)/k) of its n members, where w = partition_index and
  /// k = partition_count. Contiguous chunks (rather than a round-robin
  /// stride) keep each worker's reads on long same-page runs, since members
  /// are clustered in creation order. Null means no partitioning (every
  /// scan reads everything).
  const PlanNode* partition_node = nullptr;
  int partition_index = 0;
  int partition_count = 1;

  /// The order a merging Exchange merges this worker pipeline's output on
  /// (null in serial pipelines and under a plain Exchange). A Sort or TopK
  /// on exactly this order attaches its emitted rows' order words to each
  /// batch (TupleBatch::AttachSortWords), so the merge does not encode
  /// again what the worker already encoded.
  const SortSpec* merge_sort = nullptr;

  /// Exec-layer fault injection (null = off, the zero-cost default: one
  /// pointer compare per Tick). The injector lives on ExecutePlan's stack
  /// and outlives every worker of the execution.
  ExecFaultInjector* exec_faults = nullptr;
  /// Fault-site identity for the injector: the Exchange partition index
  /// (0 for serial pipelines) and the Session-level query attempt, so
  /// "attempts < N fail" policies shape faults the retry ladder outlives.
  int fault_worker = 0;
  int fault_attempt = 0;

  /// Mid-query re-planning trigger (0 = off). When positive, the input of
  /// every pipeline breaker (hash-join build, Sort/TopK input — including
  /// an Exchange feeding one) is wrapped in a drift check that fails with
  /// kPlanDrift once the actual row count exceeds the optimizer's estimate
  /// by this factor (fired as soon as the count crosses the line, before
  /// the suffix runs) or undershoots it by the same factor at end of
  /// stream (fired at build completion). kPlanDrift is deliberately not
  /// retryable: the Session catches it, re-optimizes with measured
  /// cardinality feedback, and restarts. Checks are suppressed inside
  /// Exchange workers (partition_count > 1), where per-partition counts
  /// cannot be compared against whole-input estimates.
  double replan_drift_threshold = 0.0;

  SimClock& clock() const { return stream->clock; }
  const CostModelOptions& timing() const { return store->timing(); }
  int num_bindings() const { return ctx->bindings.size(); }

  /// Cooperative checkpoint, called once per operator Next() — i.e. at
  /// batch granularity: the exec-fault tick site, then the governor. Free
  /// when ungoverned; one extra pointer compare when exec faults are not
  /// injected.
  Status Tick() const {
    if (exec_faults != nullptr) {
      OODB_RETURN_IF_ERROR(exec_faults->OnTick(fault_worker, fault_attempt));
    }
    return CheckGovernor();
  }

  /// Governor checkpoint: charges the pages this stream read since its last
  /// checkpoint to the page budget.
  Status CheckGovernor() const {
    if (governor == nullptr) return Status::OK();
    const int64_t pages = stream->reads() - stream->governed_reads;
    stream->governed_reads += pages;
    return governor->CheckExec(pages);
  }

  /// Charges `rows` tuples buffered by a blocking operator (hash build,
  /// sort, nested-loops buffer) against the tracked-memory budget.
  Status ChargeBuffered(int64_t rows = 1) const {
    if (governor == nullptr) return Status::OK();
    return governor->ChargeTrackedBytes(rows *
                                        static_cast<int64_t>(num_bindings()) *
                                        static_cast<int64_t>(sizeof(Slot)));
  }
};

/// Comparison-count model of one sort, heap or merge step: ceil(log2(n)),
/// at least 1.
inline double LogCeil(size_t n) {
  double log = 1.0;
  while ((1ull << static_cast<unsigned>(log)) < n) log += 1.0;
  return log;
}

/// Adapts a batch-producing child to tuple-at-a-time consumption for
/// blocking operators (hash build, sort) and the merge join's
/// streaming cursors. Owns the child-facing batch; each Next() copies one
/// row out, so the returned tuple survives batch refills.
class BatchReader {
 public:
  BatchReader(ExecNode* child, int width, size_t batch_size)
      : child_(child), batch_(width, batch_size) {}

  /// Copies the next row into *out; returns false at end of stream.
  Result<bool> Next(Tuple* out) {
    TupleRef ref;
    OODB_ASSIGN_OR_RETURN(bool ok, NextRef(&ref));
    if (ok) out->AssignFrom(ref);
    return ok;
  }

  /// Yields a view of the next live row — valid until the following
  /// Next/NextRef call. Buffering consumers construct their owning Tuple
  /// straight from the view (one copy) instead of assigning into a scratch
  /// tuple and then copying that into the buffer (two copies per row —
  /// measurable on wide bindings; see DESIGN "Columnar execution").
  /// Selection-aware: only rows alive under the child batch's selection
  /// vector are yielded.
  Result<bool> NextRef(TupleRef* out) {
    if (pos_ >= batch_.active()) {
      if (eos_) return false;
      OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(&batch_));
      pos_ = 0;
      if (n == 0) {
        eos_ = true;
        return false;
      }
    }
    *out = batch_.active_ref(pos_++);
    return true;
  }

 private:
  ExecNode* child_;
  TupleBatch batch_;
  size_t pos_ = 0;
  bool eos_ = false;
};

/// Builds one executable iterator (sub-)tree under `env`. Exposed (rather
/// than file-local) so the Exchange operator can build per-worker copies of
/// its child plan with partitioned ExecEnvs.
Result<std::unique_ptr<ExecNode>> BuildExecNode(const ExecEnv& env,
                                                const PlanNode& plan);

}  // namespace oodb

#endif  // OODB_EXEC_OPERATORS_H_
