// Anticipated-cost formulas for every execution algorithm. Shared by the
// implementation rules, the enforcers, and the baseline (greedy) planner so
// that all planners cost plans identically.
#ifndef OODB_PHYSICAL_ALGORITHMS_H_
#define OODB_PHYSICAL_ALGORITHMS_H_

#include <vector>

#include "src/algebra/logical_props.h"
#include "src/cost/cost_model.h"
#include "src/physical/physical_op.h"

namespace oodb {

/// Sequential scan of a collection: sequential page reads + per-tuple CPU.
Cost FileScanCost(const CostModel& cm, const Catalog& catalog,
                  const CollectionInfo& coll);

/// Conjunct evaluations per input row of a conjunction whose conjuncts,
/// of selectivities `sels`, run in that order, each on the rows the earlier
/// ones kept: the sum over i of the product of sels[0..i).
double ConjunctEvaluations(const std::vector<double>& sels);

/// (Path-)index scan: B-tree descent, per-match leaf entries, per-match
/// random fetch of the (unclustered) root objects, and residual predicate
/// CPU over the fetched matches (`residual_evals` conjunct evaluations per
/// match, see ConjunctEvaluations).
Cost IndexScanCost(const CostModel& cm, double matches, bool clustered,
                   double residual_evals, const Catalog& catalog,
                   TypeId root_type);

/// Filter: ConjunctEvaluations(sels) predicate evaluations per input row;
/// in ascending order, the cost of the cheapest stack of 1-conjunct Filters.
Cost FilterCost(const CostModel& cm, double in_card,
                const std::vector<double>& sels);

/// Hybrid hash join: build + probe CPU, overflow I/O beyond memory.
Cost HybridHashJoinCost(const CostModel& cm, double build_card,
                        double build_bytes, double probe_card,
                        double probe_bytes);

/// Assembly of `steps` components over `in_card` input tuples. Fault counts
/// are bounded per component type when the catalog knows the population.
/// `warm_start` pre-scans extent-resident referenced populations
/// sequentially instead of faulting (paper Lesson 7 extension).
Cost AssemblyCost(const CostModel& cm, const Catalog& catalog,
                  const BindingTable& bindings, double in_card,
                  const std::vector<MatStep>& steps, int window,
                  bool warm_start);

/// Naive pointer join: per-left-tuple dereference with no elevator batching.
Cost PointerJoinCost(const CostModel& cm, const Catalog& catalog,
                     double left_card, TypeId target_type);

/// Output construction: per-tuple CPU + per-byte copy.
Cost AlgProjectCost(const CostModel& cm, double card, double out_bytes);

/// Set-valued field expansion: per-output-element CPU.
Cost AlgUnnestCost(const CostModel& cm, double out_card);

/// Sort enforcer: n log n CPU plus external-merge I/O beyond memory.
Cost SortCost(const CostModel& cm, double card, double bytes);

/// Partial sort: the input already arrives ordered by a key prefix with
/// `distinct_prefix` estimated distinct prefix values; only rows within a
/// run of equal prefix values are re-ordered (n log(n/runs) comparisons,
/// streaming run-at-a-time emission).
Cost PartialSortCost(const CostModel& cm, double card, double bytes,
                     double distinct_prefix);

/// Bounded-heap top-k over `card` input rows. `presorted` > 0 means the
/// input already arrives in the required order and the operator degenerates
/// to a streaming cutoff after k rows.
Cost TopKCost(const CostModel& cm, double card, int64_t k, double presorted);

/// Merge join over sorted inputs: linear CPU.
Cost MergeJoinCost(const CostModel& cm, double left_card, double right_card);

/// Nested-loops join: the cartesian-capable fallback. Buffers the left
/// input in memory (spilling beyond memory) and evaluates the predicate on
/// every pair.
Cost NestedLoopsCost(const CostModel& cm, double left_card, double left_bytes,
                     double right_card);

/// Per-batch iteration overhead of driving `card` rows through one
/// operator boundary at the configured exec_batch_size.
Cost BatchOverheadCpu(const CostModel& cm, double card);

/// Exchange at degree `dop`: worker startup/teardown, per-tuple queue flow,
/// and per-batch dispatch over the consumed stream.
Cost ExchangeCost(const CostModel& cm, double out_card, int dop);

/// Order-preserving merging Exchange: the plain Exchange terms plus a
/// loser-tree comparison per delivered row.
Cost MergeExchangeCost(const CostModel& cm, double out_card, int dop);

}  // namespace oodb

#endif  // OODB_PHYSICAL_ALGORITHMS_H_
