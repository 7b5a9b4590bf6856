#include "src/physical/parallel.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/physical/algorithms.h"

namespace oodb {

namespace {

/// CPU of the driver chain from `node` down to (and including) `driver` —
/// the work each Exchange worker performs on its own partition slice.
/// Everything off this chain (hash builds, nested-loops buffers) is
/// replicated per worker and therefore not divided by dop.
double DriverChainCpu(const PlanNode& node, const PlanNode* driver) {
  double cpu = node.local_cost.cpu_s;
  if (&node == driver) return cpu;
  switch (node.op.kind) {
    case PhysOpKind::kFilter:
    case PhysOpKind::kAlgProject:
    case PhysOpKind::kAlgUnnest:
    case PhysOpKind::kPointerJoin:
    case PhysOpKind::kAssembly:
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK:
      return cpu + DriverChainCpu(*node.children[0], driver);
    case PhysOpKind::kHybridHashJoin:
    case PhysOpKind::kNestedLoops:
      return cpu + DriverChainCpu(*node.children[1], driver);
    default:
      return cpu;  // unreachable when `driver` was found below `node`
  }
}

/// Degree-of-parallelism choice: the best dop in [2, max_dop] and its
/// estimated response-time CPU, or dop == 1 (cpu == the serial total) when
/// no degree beats serial execution.
struct ExchangeChoice {
  int dop = 1;
  double cpu = 0.0;
};

ExchangeChoice ChooseDop(const PlanNode& plan, const PlanNode* driver,
                         const CostModel& cm, int max_dop, bool merge) {
  double total_cpu = plan.total_cost.cpu_s;
  double chain_cpu = DriverChainCpu(plan, driver);
  double out_card = plan.logical.card;
  ExchangeChoice best{1, total_cpu};
  for (int dop = 2; dop <= max_dop; ++dop) {
    Cost ex = merge ? MergeExchangeCost(cm, out_card, dop)
                    : ExchangeCost(cm, out_card, dop);
    double est = (total_cpu - chain_cpu) +
                 chain_cpu / static_cast<double>(dop) + ex.cpu_s;
    if (est < best.cpu) best = ExchangeChoice{dop, est};
  }
  return best;
}

/// Builds the Exchange node by hand (not PlanNode::Make): its total cost is
/// the anticipated *response time* est(dop), which is less than the child's
/// summed work — its local cost is the (negative) speedup net of startup,
/// flow, and (for merge) the merge's comparisons.
PlanNodePtr MakeExchangeNode(PlanNodePtr child, const PlanNode* driver,
                             const ExchangeChoice& choice, bool merge) {
  double child_cpu = child->total_cost.cpu_s;
  auto ex = std::make_shared<PlanNode>();
  ex->op.kind = PhysOpKind::kExchange;
  ex->op.dop = choice.dop;
  ex->op.partition_binding = driver->op.binding;
  ex->logical = child->logical;
  ex->delivered = child->delivered;
  if (merge) {
    // Order-preserving: every worker's contiguous partition slice arrives
    // sorted; the consumer merges them, and any limit is both
    // pushed to each producer and re-applied at the merge.
    ex->op.merge = true;
    ex->op.sort = child->delivered.sort;
    ex->op.limit = child->delivered.limit;
  } else {
    ex->delivered.sort = SortSpec{};  // workers interleave: order is lost
    ex->delivered.limit = 0;
  }
  ex->total_cost = Cost{child->total_cost.io_s, choice.cpu};
  ex->local_cost = Cost{0.0, choice.cpu - child_cpu};
  ex->children.push_back(std::move(child));
  return ex;
}

/// Order-preserving parallelization of an ordered (or limited) subtree:
/// wrap the whole thing in a merging Exchange so each worker produces its
/// partition's sorted run. Returns nullptr when no partitionable driver
/// exists or no dop beats serial execution.
PlanNodePtr TryMergeExchange(PlanNodePtr plan, const CostModel& cm,
                             int max_dop) {
  const PlanNode* driver = FindPartitionableScan(*plan);
  if (driver == nullptr) return nullptr;
  ExchangeChoice choice = ChooseDop(*plan, driver, cm, max_dop, /*merge=*/true);
  if (choice.dop <= 1) return nullptr;
  return MakeExchangeNode(std::move(plan), driver, choice, /*merge=*/true);
}

}  // namespace

const PlanNode* FindPartitionableScan(const PlanNode& plan) {
  switch (plan.op.kind) {
    case PhysOpKind::kFileScan:
    case PhysOpKind::kIndexScan:
      return &plan;
    case PhysOpKind::kFilter:
    case PhysOpKind::kAlgProject:
    case PhysOpKind::kAlgUnnest:
    case PhysOpKind::kPointerJoin:
    case PhysOpKind::kAssembly:
      return FindPartitionableScan(*plan.children[0]);
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK:
      // A per-worker sort / top-k over a *contiguous* partition slice is
      // sound: slices of a (prefix-)sorted stream are themselves
      // (prefix-)sorted, and the merging Exchange restores global order.
      return FindPartitionableScan(*plan.children[0]);
    case PhysOpKind::kHybridHashJoin:  // build replicated, probe partitioned
    case PhysOpKind::kNestedLoops:     // buffer replicated, right partitioned
      return FindPartitionableScan(*plan.children[1]);
    default:
      // Merge join depends on seeing the whole input; a nested exchange
      // partitions for itself.
      return nullptr;
  }
}

PlanNodePtr PlantExchanges(PlanNodePtr plan, const CostModel& cm,
                           int max_dop) {
  if (max_dop <= 1 || plan == nullptr) return plan;

  // Descend through a root Alg-Project that relays an ordered or limited
  // delivery: the interesting choice (merge vs. enforcer-above) sits at the
  // Sort/TopK or ordered scan below it.
  if (plan->op.kind == PhysOpKind::kAlgProject &&
      (plan->delivered.sort.IsSorted() || plan->delivered.limit > 0)) {
    PlanNodePtr child = PlantExchanges(plan->children[0], cm, max_dop);
    if (child == plan->children[0]) return plan;
    return PlanNode::Make(plan->op, {std::move(child)}, plan->logical,
                          plan->delivered, plan->local_cost);
  }

  if (plan->op.kind == PhysOpKind::kSort ||
      plan->op.kind == PhysOpKind::kTopK) {
    // Only the merging variant parallelizes an ordered root. The tempting
    // alternative — the enforcer above a plain Exchange — is multiset-
    // correct but *nondeterministic*: a stable sort's tie order inherits
    // its input sequence, and worker interleaving scrambles that sequence
    // differently on every run. A merging Exchange over contiguous slices
    // (ties toward the lower partition index) reproduces the serial stable
    // sort bit for bit, so ordered parallel plans are merge plans or stay
    // serial.
    PlanNodePtr merged = TryMergeExchange(plan, cm, max_dop);
    return merged != nullptr ? merged : plan;
  }

  // An ordered delivery reaching the consumer with no enforcer above (an
  // index scan satisfying ORDER BY directly): contiguous partition slices
  // of the ordered driver are each sorted, so a merging Exchange keeps the
  // order that a plain Exchange would shuffle away.
  if (plan->delivered.sort.IsSorted()) {
    PlanNodePtr merged = TryMergeExchange(plan, cm, max_dop);
    return merged != nullptr ? merged : plan;
  }
  // A limited delivery is produced only by TopK / Alg-Project roots, both
  // handled above; never interleave it.
  if (plan->delivered.limit > 0) return plan;

  const PlanNode* driver = FindPartitionableScan(*plan);
  if (driver == nullptr) return plan;
  ExchangeChoice choice =
      ChooseDop(*plan, driver, cm, max_dop, /*merge=*/false);
  if (choice.dop <= 1) return plan;
  return MakeExchangeNode(std::move(plan), driver, choice, /*merge=*/false);
}

PlanNodePtr StripExchanges(const PlanNodePtr& plan) {
  if (plan->op.kind == PhysOpKind::kExchange) {
    return StripExchanges(plan->children[0]);
  }
  std::vector<PlanNodePtr> children;
  children.reserve(plan->children.size());
  bool changed = false;
  for (const PlanNodePtr& c : plan->children) {
    children.push_back(StripExchanges(c));
    changed |= children.back() != c;
  }
  if (!changed) return plan;
  return PlanNode::Make(plan->op, std::move(children), plan->logical,
                        plan->delivered, plan->local_cost);
}

}  // namespace oodb
