// The parallelization rule: a post-optimization, cost-controlled pass that
// plants Volcano Exchange operators into the winning serial plan. Volcano's
// two-phase view of parallelism — optimize the algebra serially, then
// decide where to cut the plan into threads — keeps the memo search
// unchanged (and the default max_dop = 1 keeps plans bit-for-bit identical
// to the seed); the pass compares the serial plan's anticipated response
// time against est(dop) for each candidate degree of parallelism, charging
// exchange startup and per-tuple flow costs, and wraps the pipeline root in
// an Exchange only when some dop > 1 wins.
#ifndef OODB_PHYSICAL_PARALLEL_H_
#define OODB_PHYSICAL_PARALLEL_H_

#include "src/cost/cost_model.h"
#include "src/volcano/plan.h"

namespace oodb {

/// The driver scan an Exchange above `plan` would partition: follows the
/// streaming side of each operator (the probe side of hash joins, the right
/// side of nested loops, the only child of unary operators) down to a file
/// or index scan. Null when the chain hits an order- or partition-sensitive
/// operator (sort, merge join, another exchange). Shared between
/// this planner pass and the Exchange executor, so the plant decision and
/// the per-worker partitioned scans agree on the same node.
const PlanNode* FindPartitionableScan(const PlanNode& plan);

/// Returns `plan` with an Exchange planted over its pipeline root when a
/// degree of parallelism in [2, max_dop] beats the serial plan's
/// anticipated CPU response time:
///
///   est(dop) = off-path CPU (replicated build sides, overlapped across
///              workers) + driver-chain CPU / dop + ExchangeCost(dop)
///
/// I/O is charged in full at every dop (one shared disk arm). Descends
/// through a root Sort enforcer (a sort consumes its whole input before
/// emitting, so an unordered Exchange below it is harmless); refuses to
/// break an ordered delivery that reaches the consumer. max_dop <= 1
/// returns the plan unchanged.
PlanNodePtr PlantExchanges(PlanNodePtr plan, const CostModel& cm,
                           int max_dop);

/// Returns `plan` with every Exchange replaced by its child: the plan the
/// retry ladder's serial rung runs. Subtrees without an Exchange are shared;
/// their ancestors are rebuilt with re-summed total costs.
PlanNodePtr StripExchanges(const PlanNodePtr& plan);

}  // namespace oodb

#endif  // OODB_PHYSICAL_PARALLEL_H_
