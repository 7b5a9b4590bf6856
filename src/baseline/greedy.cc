#include "src/baseline/greedy.h"

#include <algorithm>

#include "src/cost/selectivity.h"
#include "src/physical/algorithms.h"
#include "src/physical/enforcers.h"

namespace oodb {

namespace {

/// The flattened linear query.
struct ChainQuery {
  LogicalOp get;
  std::vector<LogicalOp> steps;  // Unnest / Mat in bottom-up order
  std::vector<ScalarExprPtr> conjuncts;
  std::vector<ScalarExprPtr> emit;
  bool has_project = false;
};

Result<ChainQuery> Flatten(const LogicalExpr& expr) {
  ChainQuery q;
  const LogicalExpr* cur = &expr;
  if (cur->op.kind == LogicalOpKind::kProject) {
    q.has_project = true;
    q.emit = cur->op.emit;
    cur = cur->children[0].get();
  }
  std::vector<LogicalOp> steps_top_down;
  while (cur->op.kind != LogicalOpKind::kGet) {
    switch (cur->op.kind) {
      case LogicalOpKind::kSelect: {
        for (const ScalarExprPtr& c :
             ScalarExpr::SplitConjuncts(cur->op.pred)) {
          q.conjuncts.push_back(c);
        }
        break;
      }
      case LogicalOpKind::kMat:
      case LogicalOpKind::kUnnest:
        steps_top_down.push_back(cur->op);
        break;
      default:
        return Status::Unimplemented(
            "greedy planner supports single-collection chain queries only");
    }
    cur = cur->children[0].get();
  }
  q.get = cur->op;
  q.steps.assign(steps_top_down.rbegin(), steps_top_down.rend());
  return q;
}

/// Returns the equality conjunct on `binding`.`field`, if any.
const ScalarExprPtr* FindEqConjunct(const std::vector<ScalarExprPtr>& conjuncts,
                                    BindingId binding, FieldId field) {
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->kind() != ScalarExpr::Kind::kCmp || c->cmp_op() != CmpOp::kEq) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      const ScalarExprPtr& a = c->children()[i];
      const ScalarExprPtr& b = c->children()[1 - i];
      if (a->kind() == ScalarExpr::Kind::kAttr && a->binding() == binding &&
          a->field() == field && b->kind() == ScalarExpr::Kind::kConst) {
        return &c;
      }
    }
  }
  return nullptr;
}

void Erase(std::vector<ScalarExprPtr>* conjuncts, const ScalarExprPtr& c) {
  conjuncts->erase(std::find(conjuncts->begin(), conjuncts->end(), c));
}

}  // namespace

Result<OptimizedQuery> GreedyOptimizer::Optimize(const LogicalExpr& input,
                                                 QueryContext* ctx,
                                                 PhysProps required) const {
  OODB_RETURN_IF_ERROR(ValidateLogicalTree(input, *ctx).status());
  OODB_ASSIGN_OR_RETURN(ChainQuery q, Flatten(input));
  SelectivityEstimator sel(ctx);
  const Catalog& catalog = *catalog_;

  // --- Root access path: take the first enabled index whose (path-)key has
  // an equality conjunct, without comparing costs. ---
  OODB_ASSIGN_OR_RETURN(const CollectionInfo* coll,
                        catalog.FindCollection(q.get.coll));
  PlanNodePtr plan;
  LogicalProps props;
  props.scope = BindingSet::Of(q.get.binding);
  props.card = static_cast<double>(coll->cardinality);
  props.tuple_bytes = ctx->schema().type(q.get.coll.type).object_size();

  for (const IndexInfo* idx : catalog.IndexesOn(q.get.coll)) {
    // Only single-field indexes can be used before the mats run; path
    // indexes would need the exact mat chain, which greedy does not analyze.
    if (idx->path.size() != 1) continue;
    const ScalarExprPtr* key =
        FindEqConjunct(q.conjuncts, q.get.binding, idx->path[0]);
    if (key == nullptr) continue;
    PhysicalOp op;
    op.kind = PhysOpKind::kIndexScan;
    op.coll = q.get.coll;
    op.binding = q.get.binding;
    op.index_name = idx->name;
    op.index_pred = *key;
    double matches = props.card / std::max<double>(1.0, idx->distinct_keys);
    props.card = matches;
    Cost cost = IndexScanCost(cost_model_, matches, idx->clustered, 0.0,
                              catalog, q.get.coll.type);
    PhysProps delivered;
    delivered.in_memory = BindingSet::Of(q.get.binding);
    Erase(&q.conjuncts, *key);
    plan = PlanNode::Make(std::move(op), {}, props, delivered, cost);
    break;
  }
  if (!plan) {
    PhysicalOp op;
    op.kind = PhysOpKind::kFileScan;
    op.coll = q.get.coll;
    op.binding = q.get.binding;
    PhysProps delivered;
    delivered.in_memory = BindingSet::Of(q.get.binding);
    plan = PlanNode::Make(std::move(op), {}, props,
                          delivered, FileScanCost(cost_model_, catalog, *coll));
  }

  // --- Steps: unnest as encountered; for each Mat, use an index + hash join
  // when an index serves an equality on the target, else assembly. Apply
  // each remaining conjunct as a filter as soon as its bindings are loaded.
  auto apply_ready_filters = [&]() {
    while (true) {
      bool applied = false;
      for (const ScalarExprPtr& c : q.conjuncts) {
        BindingSet needs = LoadRequirements(c, *ctx);
        if (!plan->delivered.in_memory.ContainsAll(needs) ||
            !props.scope.ContainsAll(c->ReferencedBindings())) {
          continue;
        }
        PhysicalOp op;
        op.kind = PhysOpKind::kFilter;
        op.pred = c;
        double s = sel.Estimate(c);
        props.card *= s;
        Cost cost = FilterCost(cost_model_, plan->logical.card, {s});
        plan = PlanNode::Make(std::move(op), {plan}, props, plan->delivered,
                              cost);
        Erase(&q.conjuncts, c);
        applied = true;
        break;
      }
      if (!applied) break;
    }
  };
  apply_ready_filters();

  for (const LogicalOp& step : q.steps) {
    if (step.kind == LogicalOpKind::kUnnest) {
      const BindingDef& src = ctx->bindings.def(step.source);
      const FieldDef& f = ctx->schema().type(src.type).field(step.field);
      PhysicalOp op;
      op.kind = PhysOpKind::kAlgUnnest;
      op.source = step.source;
      op.field = step.field;
      op.target = step.target;
      props.scope.Add(step.target);
      props.card *= f.avg_set_card > 0 ? f.avg_set_card : 1.0;
      props.tuple_bytes += 8.0;
      Cost cost = AlgUnnestCost(cost_model_, props.card);
      plan = PlanNode::Make(std::move(op), {plan}, props, plan->delivered, cost);
      continue;
    }

    // Mat step.
    TypeId target_type = ctx->bindings.def(step.target).type;
    props.scope.Add(step.target);
    props.tuple_bytes += ctx->schema().type(target_type).object_size();

    const IndexInfo* join_idx = nullptr;
    const ScalarExprPtr* key = nullptr;
    if (catalog.HasExtent(target_type)) {
      for (const IndexInfo* idx :
           catalog.IndexesOn(CollectionId::Extent(target_type))) {
        if (idx->path.size() != 1) continue;
        key = FindEqConjunct(q.conjuncts, step.target, idx->path[0]);
        if (key != nullptr) {
          join_idx = idx;
          break;
        }
      }
    }
    if (join_idx != nullptr) {
      // Index scan of the referenced population + hybrid hash join
      // (Figure 13's greedy shape). The index scan is the build side.
      double population =
          static_cast<double>(*catalog.TypeCardinality(target_type));
      double matches =
          population / std::max<double>(1.0, join_idx->distinct_keys);
      PhysicalOp scan;
      scan.kind = PhysOpKind::kIndexScan;
      scan.coll = CollectionId::Extent(target_type);
      scan.binding = step.target;
      scan.index_name = join_idx->name;
      scan.index_pred = *key;
      LogicalProps scan_props;
      scan_props.scope = BindingSet::Of(step.target);
      scan_props.card = matches;
      scan_props.tuple_bytes = ctx->schema().type(target_type).object_size();
      PhysProps scan_delivered;
      scan_delivered.in_memory = BindingSet::Of(step.target);
      PlanNodePtr scan_node = PlanNode::Make(
          std::move(scan), {}, scan_props, scan_delivered,
          IndexScanCost(cost_model_, matches, join_idx->clustered, 0.0,
                        catalog, target_type));

      PhysicalOp join;
      join.kind = PhysOpKind::kHybridHashJoin;
      join.pred =
          step.field == kInvalidField
              ? ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Self(step.target),
                                ScalarExpr::Self(step.source))
              : ScalarExpr::RefEq(step.source, step.field, step.target);
      props.card *= matches / population;
      PhysProps delivered = plan->delivered;
      delivered.in_memory.Add(step.target);
      Cost cost = HybridHashJoinCost(cost_model_, matches,
                                     scan_props.tuple_bytes,
                                     plan->logical.card, plan->logical.tuple_bytes);
      Erase(&q.conjuncts, *key);
      plan = PlanNode::Make(std::move(join), {scan_node, plan}, props,
                            delivered, cost);
    } else {
      PhysicalOp op;
      op.kind = PhysOpKind::kAssembly;
      op.mats = {MatStep{step.source, step.field, step.target}};
      PhysProps delivered = plan->delivered;
      delivered.in_memory.Add(step.target);
      Cost cost = AssemblyCost(cost_model_, catalog, ctx->bindings,
                               plan->logical.card, op.mats, /*window=*/0,
                               /*warm_start=*/false);
      plan = PlanNode::Make(std::move(op), {plan}, props, delivered, cost);
    }
    apply_ready_filters();
  }

  if (!q.conjuncts.empty()) {
    return Status::PlanError(
        "greedy planner could not place all predicates (unloaded components)");
  }

  // Enforce a required order / limit with one Sort (or bounded-heap TopK)
  // over the chain — below the root projection, where the key bindings are
  // still in scope. Greedy never considers order-aware access paths.
  auto add_order = [&]() -> Status {
    if (!required.sort.IsSorted() && required.limit <= 0) return Status::OK();
    for (const SortKey& k : required.sort.keys) {
      if (!props.scope.Contains(k.binding)) {
        return Status::PlanError(
            "greedy planner: ORDER BY key is out of the query scope");
      }
      if (!plan->delivered.in_memory.Contains(k.binding)) {
        return Status::PlanError(
            "greedy planner: ORDER BY key binding is not loaded");
      }
    }
    PhysicalOp op;
    op.kind = required.limit > 0 ? PhysOpKind::kTopK : PhysOpKind::kSort;
    op.sort = required.sort;
    op.limit = required.limit;
    PhysProps delivered = plan->delivered;
    delivered.sort = required.sort;
    delivered.limit = required.limit;
    Cost cost = required.limit > 0
                    ? TopKCost(cost_model_, props.card, required.limit,
                               required.sort.IsSorted() ? 0.0 : 1.0)
                    : SortCost(cost_model_, props.card, props.tuple_bytes);
    if (required.limit > 0) {
      props.card =
          std::min(props.card, static_cast<double>(required.limit));
    }
    plan = PlanNode::Make(std::move(op), {plan}, props, delivered, cost);
    return Status::OK();
  };

  if (q.has_project) {
    PhysicalOp op;
    op.kind = PhysOpKind::kAlgProject;
    op.emit = q.emit;
    BindingSet needs = LoadRequirements(q.emit, *ctx);
    for (const SortKey& k : required.sort.keys) needs.Add(k.binding);
    if (!plan->delivered.in_memory.ContainsAll(needs)) {
      // Load whatever the projection still needs with one final assembly.
      // Steps come from PlanAssemblySteps so sources precede their targets
      // and intermediate chain objects are loaded too, not just the read
      // ends (a step dereferencing an unloaded source faults at runtime).
      BindingSet to_load = needs.Minus(plan->delivered.in_memory);
      PhysicalOp assemble;
      assemble.kind = PhysOpKind::kAssembly;
      for (;;) {
        BindingSet need_below;
        assemble.mats = PlanAssemblySteps(to_load, *ctx, &need_below);
        if (assemble.mats.empty()) {
          return Status::PlanError(
              "greedy planner cannot assemble projection inputs");
        }
        BindingSet unmet = need_below.Minus(plan->delivered.in_memory);
        if (unmet.Empty()) break;
        to_load = to_load.Union(unmet);
      }
      PhysProps delivered = plan->delivered;
      for (const MatStep& s : assemble.mats) delivered.in_memory.Add(s.target);
      Cost cost = AssemblyCost(cost_model_, catalog, ctx->bindings,
                               plan->logical.card, assemble.mats, 0, false);
      plan = PlanNode::Make(std::move(assemble), {plan}, props, delivered,
                            cost);
    }
    OODB_RETURN_IF_ERROR(add_order());
    // The projection discards the chain scope: its output is the emit
    // expressions' bindings only, and it delivers at most what remains both
    // loaded below and loadable in that narrowed scope.
    LogicalProps out_props = props;
    out_props.scope = needs;
    for (const ScalarExprPtr& e : q.emit) {
      if (e != nullptr) {
        out_props.scope = out_props.scope.Union(e->ReferencedBindings());
      }
    }
    PhysProps out_delivered = plan->delivered;
    out_delivered.in_memory = plan->delivered.in_memory.Intersect(
        LoadableBindings(out_props.scope, *ctx));
    Cost cost = AlgProjectCost(cost_model_, props.card, props.tuple_bytes);
    plan = PlanNode::Make(std::move(op), {plan}, out_props, out_delivered,
                          cost);
  } else {
    OODB_RETURN_IF_ERROR(add_order());
  }

  OptimizedQuery out;
  out.plan = plan;
  out.cost = plan->total_cost;
  return out;
}

}  // namespace oodb
