// The physical algebra: the execution algorithms of the Open OODB engine
// (paper §3 "Execution Algorithms"): file and index scans, filter, hybrid
// hash join, pointer-based join, complex-object assembly (also the enforcer
// of presence-in-memory), Alg-Project and Alg-Unnest, plus Sort and
// MergeJoin extension algorithms.
#ifndef OODB_PHYSICAL_PHYSICAL_OP_H_
#define OODB_PHYSICAL_PHYSICAL_OP_H_

#include <string>
#include <vector>

#include "src/physical/phys_props.h"

namespace oodb {

enum class PhysOpKind {
  kFileScan,       ///< sequential scan of a set/extent
  kIndexScan,      ///< (path-)index scan with a key predicate + residual
  kFilter,         ///< predicate evaluation on loaded components
  kHybridHashJoin, ///< value-based set matching
  kPointerJoin,    ///< per-tuple pointer dereference join (Shekita/Carey)
  kAssembly,       ///< windowed complex-object assembly (Keller et al.)
  kAlgProject,     ///< output construction
  kAlgUnnest,      ///< set-valued field expansion
  kSort,           ///< sort enforcer (extension)
  kTopK,           ///< bounded-heap top-k: ORDER BY ... LIMIT enforcer
  kMergeJoin,      ///< merge join on sorted inputs (extension)
  kNestedLoops,    ///< nested-loops join (cartesian-capable fallback)
  kExchange,       ///< Volcano exchange: intra-query parallelism (extension)
};

const char* PhysOpKindName(PhysOpKind kind);

/// One component-materialization step performed by Assembly / PointerJoin:
/// load the object referenced by `source`.`field` (or by the bare-reference
/// binding `source` when field == kInvalidField) as `target`.
struct MatStep {
  BindingId source = kInvalidBinding;
  FieldId field = kInvalidField;
  BindingId target = kInvalidBinding;

  bool operator==(const MatStep& o) const {
    return source == o.source && field == o.field && target == o.target;
  }
};

/// A physical operator (without children). Fields are a union over operator
/// kinds, mirroring LogicalOp.
struct PhysicalOp {
  PhysOpKind kind = PhysOpKind::kFileScan;

  // kFileScan / kIndexScan
  CollectionId coll;
  BindingId binding = kInvalidBinding;

  // kIndexScan
  std::string index_name;
  ScalarExprPtr index_pred;  ///< the key-equality conjunct the index answers

  // kFilter residual / join predicates (kHybridHashJoin, kPointerJoin,
  // kMergeJoin); also the residual predicate of kIndexScan.
  ScalarExprPtr pred;

  // kAssembly / kPointerJoin: component steps to materialize.
  std::vector<MatStep> mats;
  /// Assembly window (0 = cost-model default). The paper's "w/o window"
  /// ablation forces 1.
  int window = 0;
  /// Warm-start assembly (paper Lesson 7 extension): pre-scan the referenced
  /// population sequentially into memory before assembling.
  bool warm_start = false;

  // kAlgProject
  std::vector<ScalarExprPtr> emit;

  // kAlgUnnest
  BindingId source = kInvalidBinding;
  FieldId field = kInvalidField;
  BindingId target = kInvalidBinding;

  // kSort / kTopK / kMergeJoin; also the merge order of an order-preserving
  // kExchange (op.merge below).
  SortSpec sort;
  /// kSort / kTopK: leading keys of `sort` the input already arrives sorted
  /// by. A partial sort only orders within runs of equal prefix values; a
  /// TopK with sort_prefix == sort.size() degenerates to a streaming cutoff.
  int sort_prefix = 0;
  /// kTopK / kExchange: keep only the first `limit` rows in `sort` order
  /// (0 = unbounded). On a merging Exchange the bound is also pushed down
  /// to each producer via the TopK in the worker template.
  int64_t limit = 0;

  // kExchange: degree of parallelism (worker count) and, within the child
  // template, which descendant scan each worker partitions round-robin.
  int dop = 1;
  /// Binding of the partitioned driver scan (display/fingerprint only; the
  /// planner re-locates the scan node when building workers).
  BindingId partition_binding = kInvalidBinding;
  /// Order-preserving Exchange: each worker's partition stream arrives
  /// sorted (per-partition sorted runs) and the consumer merges them run
  /// by run instead of interleaving, preserving `sort`.
  bool merge = false;

  std::string ToString(const QueryContext& ctx) const;
};

}  // namespace oodb

#endif  // OODB_PHYSICAL_PHYSICAL_OP_H_
