// The Volcano Exchange operator: encapsulated intra-query parallelism
// behind the unchanged iterator facade (Graefe's "operator model" — the
// paper's future-work item 5 transfers Volcano's execution concepts, and
// exchange is the one operator Volcano adds to parallelize all the others
// without changing them). Open() submits one task per partition to the
// process-wide WorkerPool; each runs a private copy of the child operator
// tree whose driver scan reads a disjoint *contiguous* slice of its
// collection (see ExecEnv::partition_node), while build sides of
// hash/nested-loops joins are replicated per partition. Partitions deliver
// full TupleBatches into a bounded multi-producer single-consumer queue;
// Next() pops one batch at a time, so the parent cannot tell an Exchange
// from any other operator.
//
// Order-preserving variant (op.merge): when the worker plan sorts (or
// top-k's) its slice locally, each partition delivers into a private FIFO
// and the consumer k-way-merges the sorted stream heads, ties broken toward
// the lower partition index — which, over contiguous slices and stable
// local sorts, reproduces the global stable sort order exactly.
//
// Delivery: both variants run exactly one worker per partition, and its
// batches stream straight to the destination queue. A worker fault ends
// the query with its typed Status; the Session retry ladder is the only
// recovery layer (it re-runs the whole statement).
//
// Accounting: each worker charges its CPU and its page reads to a private
// SimStream — its own clock, disk arm and read counters — which the join
// merges into the consumer's stream. A governor trip on any worker is
// sticky in the shared QueryGovernor, so every other worker trips at its
// next checkpoint and the whole pipeline drains; the first error is
// reported from Next().
#ifndef OODB_EXEC_EXCHANGE_H_
#define OODB_EXEC_EXCHANGE_H_

#include <memory>

#include "src/exec/operators.h"

namespace oodb {

/// Builds the Exchange executor for plan node `plan` (op.kind == kExchange,
/// one child: the worker plan template). Falls back to a single
/// unpartitioned worker when no partitionable driver scan exists in the
/// child (the result stays correct; it just is not parallel).
Result<std::unique_ptr<ExecNode>> MakeExchangeExec(const ExecEnv& env,
                                                   const PlanNode& plan);

}  // namespace oodb

#endif  // OODB_EXEC_EXCHANGE_H_
