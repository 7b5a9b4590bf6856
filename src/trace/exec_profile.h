// EXPLAIN ANALYZE support: per-operator runtime counters collected while a
// plan executes, merged across Exchange workers at join, and rendered as an
// annotated plan tree next to the optimizer's estimates.
//
// Collection model: when ExecOptions::analyze is on, every exec node built
// from a plan node is wrapped in a recording decorator keyed by the
// PlanNode's address. Each ExecProfile instance is written by exactly one
// thread — the consumer pipeline owns one, and every Exchange worker gets a
// private instance merged into the consumer's after the worker joins (the
// same discipline as the per-worker SimClocks) — so recording takes no
// locks and no atomics, and a dop>1 ANALYZE run is race-free by
// construction rather than by synchronization.
//
// Timing attribution: CPU seconds, I/O seconds, pages and buffer hits come
// from the recording pipeline's own accounting stream (the store's serial
// stream, or a worker-private one inside an Exchange), so they are exact
// per operator at every dop. All per-node counters are inclusive of the
// operator's subtree; an Exchange's row includes the worker streams it
// merges at the join.
#ifndef OODB_TRACE_EXEC_PROFILE_H_
#define OODB_TRACE_EXEC_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/volcano/plan.h"

namespace oodb {

/// Counters for one plan node (inclusive of its subtree).
struct OpProfile {
  int64_t rows = 0;     ///< tuples emitted by this operator (live rows)
  /// Physical rows in the emitted batches: equals `rows` for compact
  /// batches; exceeds it when the operator marked survivors in a selection
  /// vector (columnar filters). rows/phys_rows is the operator's selection
  /// density, rendered as "sel N%" when below 100%.
  int64_t phys_rows = 0;
  int64_t batches = 0;  ///< non-empty batches emitted
  double cpu_s = 0.0;   ///< simulated CPU charged while inside this subtree
  double io_s = 0.0;    ///< simulated I/O seconds
  int64_t pages_read = 0;   ///< physical page reads (buffer misses)
  int64_t buffer_hits = 0;  ///< buffer-pool hits

  // Order-property operators (zero elsewhere):
  /// Peak bounded-heap occupancy of a TopK — min(k, input rows); merged
  /// across Exchange workers by max, since each worker keeps its own heap.
  int64_t topk_heap = 0;
  /// Equal-prefix runs a partial Sort flushed (0 for a full sort). The
  /// prefix-sort saving is visible as many short runs instead of one
  /// input-sized sort.
  int64_t sort_runs = 0;
  /// Sorted per-partition streams a merging Exchange interleaved.
  int64_t merge_streams = 0;
  /// Block copies the merge emitted (each a run of one stream's rows).
  int64_t merge_runs = 0;
  /// Stream batches whose sort keys the merge gathered and encoded itself
  /// (0 when every worker's Sort/TopK attached its words).
  int64_t merge_encoded = 0;

  void MergeFrom(const OpProfile& other);
};

/// One Exchange worker's contribution, for DOP utilization reporting.
struct WorkerUtilization {
  int worker = 0;
  int64_t rows = 0;   ///< rows the worker pushed into the exchange queue
  double cpu_s = 0.0; ///< the worker's private-clock CPU seconds
};

/// The per-query collection of operator profiles. Written single-threaded
/// (see file comment); merged across workers after they join.
class ExecProfile {
 public:
  /// Returns this node's counters, creating them on first use. The pointer
  /// is stable across later registrations.
  OpProfile* Register(const PlanNode* node);

  /// Null when the node produced no exec operator of its own (a filter
  /// fused into a chain or into the scan below records under the chain's
  /// top node).
  const OpProfile* Find(const PlanNode* node) const;

  /// Adds `other`'s counters node-by-node (worker merge at Exchange join).
  void MergeFrom(const ExecProfile& other);

  void AddWorker(const PlanNode* exchange, WorkerUtilization u);
  const std::vector<WorkerUtilization>* workers(const PlanNode* exchange) const;

  size_t num_ops() const { return ops_.size(); }

 private:
  std::unordered_map<const PlanNode*, OpProfile> ops_;
  std::unordered_map<const PlanNode*, std::vector<WorkerUtilization>> workers_;
};

/// Symmetric estimate/actual drift as a >= 1 factor: max/min after clamping
/// both sides up to one row, so "estimated 0.3, saw 0" reads as no drift
/// instead of a division artifact. Direction is reported separately (an
/// estimate above the actual is "over", below is "under").
double DriftRatio(double estimated, int64_t actual);

/// The worst per-operator cardinality drift across all profiled nodes of
/// `plan` (1.0 when nothing was profiled) — the ANALYZE diff the estimator
/// regression tests key on.
double MaxDriftRatio(const PlanNode& plan, const ExecProfile& profile);

/// Renders the plan tree with per-operator est/actual annotations:
///   Op ...   [est 21.3 -> act 30 rows (drift 1.41x under), batches 1,
///             cpu 0.00012s, io 0.32s, pages 160, buf 3820h/160m]
/// Nodes without their own exec operator are annotated "(fused)"; Exchange
/// nodes list per-worker rows/CPU utilization beneath.
std::string RenderAnalyzedPlan(const PlanNode& plan, const QueryContext& ctx,
                               const ExecProfile& profile);

}  // namespace oodb

#endif  // OODB_TRACE_EXEC_PROFILE_H_
