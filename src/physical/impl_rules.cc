#include "src/physical/impl_rules.h"

#include <algorithm>

#include "src/cost/selectivity.h"
#include "src/physical/algorithms.h"

namespace oodb {

namespace {

BindingSet GroupScope(OptContext& ctx, GroupId g) {
  return ctx.memo->group(g).props.scope;
}

double GroupCard(OptContext& ctx, GroupId g) {
  return ctx.memo->group(g).props.card;
}

/// Orders `conjuncts` by ascending estimated selectivity (ties by hash),
/// the order their operator evaluates them in; returns the selectivities.
std::vector<double> OrderBySelectivity(OptContext& ctx,
                                       std::vector<ScalarExprPtr>* conjuncts) {
  SelectivityEstimator est(ctx.qctx);
  auto key = [&](const ScalarExprPtr& c) {
    return std::make_pair(est.Estimate(c), c->Hash());
  };
  std::sort(conjuncts->begin(), conjuncts->end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::vector<double> sels;
  for (const ScalarExprPtr& c : *conjuncts) sels.push_back(est.Estimate(c));
  return sels;
}

// ---------------------------------------------------------------------------
// Get -> File Scan
// ---------------------------------------------------------------------------
class GetToFileScan : public ImplRule {
 public:
  const char* name() const override { return kImplFileScan; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kGet; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    (void)required;
    Result<const CollectionInfo*> coll =
        ctx.qctx->catalog->FindCollection(mexpr.op.coll);
    if (!coll.ok()) return Status::OK();
    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kFileScan;
    alt.op.coll = mexpr.op.coll;
    alt.op.binding = mexpr.op.binding;
    alt.delivered.in_memory = BindingSet::Of(mexpr.op.binding);
    alt.local_cost = FileScanCost(*ctx.cost_model, *ctx.qctx->catalog, **coll);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select -> Filter
// ---------------------------------------------------------------------------
class SelectToFilter : public ImplRule {
 public:
  const char* name() const override { return kImplFilter; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId child = ctx.memo->Find(mexpr.children[0]);
    PhysProps child_req = required;
    child_req.in_memory = child_req.in_memory.Union(
        LoadRequirements(mexpr.op.pred, *ctx.qctx));
    // Filter preserves order but discards rows: a required limit cannot be
    // pushed below it (the first k input rows are not the first k outputs).
    child_req.limit = 0;
    std::vector<ScalarExprPtr> conjuncts =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);
    std::vector<double> sels = OrderBySelectivity(ctx, &conjuncts);
    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kFilter;
    alt.op.pred = ScalarExpr::CombineConjuncts(std::move(conjuncts));
    alt.inputs = {{child, child_req}};
    alt.delivered = child_req;
    alt.local_cost = FilterCost(*ctx.cost_model, GroupCard(ctx, child), sels);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select(Mat*(Get)) -> Index Scan  (collapse-to-index-scan, paper Fig. 8)
// ---------------------------------------------------------------------------
class CollapseToIndexScan : public ImplRule {
 public:
  const char* name() const override { return kImplIndexScan; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    (void)required;
    std::vector<Chain> chains;
    Chain cur;
    Descend(ctx, ctx.memo->Find(mexpr.children[0]), &cur, 0, &chains);
    std::vector<ScalarExprPtr> conjuncts =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);

    for (const Chain& chain : chains) {
      for (const IndexInfo* idx :
           ctx.qctx->catalog->IndexesOn(chain.get_op.coll)) {
        TryIndex(ctx, chain, *idx, conjuncts, out);
      }
    }
    return Status::OK();
  }

 private:
  struct Chain {
    std::vector<MatStep> steps;  // innermost (nearest Get) first
    LogicalOp get_op;
  };

  static void Descend(OptContext& ctx, GroupId g, Chain* cur, int depth,
                      std::vector<Chain>* out) {
    if (depth > 4) return;
    for (MExprId id : ctx.memo->group(g).mexprs) {
      const LogicalMExpr& m = ctx.memo->mexpr(id);
      if (m.op.kind == LogicalOpKind::kGet) {
        Chain done = *cur;
        std::reverse(done.steps.begin(), done.steps.end());
        done.get_op = m.op;
        out->push_back(std::move(done));
      } else if (m.op.kind == LogicalOpKind::kMat &&
                 m.op.field != kInvalidField) {
        cur->steps.push_back({m.op.source, m.op.field, m.op.target});
        Descend(ctx, ctx.memo->Find(m.children[0]), cur, depth + 1, out);
        cur->steps.pop_back();
      }
    }
  }

  void TryIndex(OptContext& ctx, const Chain& chain, const IndexInfo& idx,
                const std::vector<ScalarExprPtr>& conjuncts,
                std::vector<PhysAlternative>* out) const {
    // The chain must consist of exactly the index path's reference steps.
    size_t ref_steps = idx.path.size() - 1;
    if (chain.steps.size() != ref_steps) return;
    BindingId root = chain.get_op.binding;
    BindingId cur = root;
    for (size_t i = 0; i < ref_steps; ++i) {
      if (chain.steps[i].source != cur || chain.steps[i].field != idx.path[i]) {
        return;
      }
      cur = chain.steps[i].target;
    }
    FieldId key_field = idx.path.back();

    // Find the key conjunct (equality preferred, then a range comparison);
    // remaining conjuncts become a residual evaluated on the fetched roots.
    ScalarExprPtr key_conjunct;
    std::vector<ScalarExprPtr> residual;
    for (const ScalarExprPtr& c : conjuncts) {
      bool is_key = IsKeyComparison(*c, cur, key_field);
      bool better = is_key && (!key_conjunct ||
                               (key_conjunct->cmp_op() != CmpOp::kEq &&
                                c->cmp_op() == CmpOp::kEq));
      if (better) {
        if (key_conjunct) residual.push_back(key_conjunct);
        key_conjunct = c;
        continue;
      }
      residual.push_back(c);
    }
    if (!key_conjunct) return;
    for (const ScalarExprPtr& r : residual) {
      if (!BindingSet::Of(root).ContainsAll(r->ReferencedBindings())) return;
    }

    Result<const CollectionInfo*> coll =
        ctx.qctx->catalog->FindCollection(chain.get_op.coll);
    if (!coll.ok()) return;
    SelectivityEstimator sel(ctx.qctx);
    double matches =
        static_cast<double>((*coll)->cardinality) * sel.Estimate(key_conjunct);

    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kIndexScan;
    alt.op.coll = chain.get_op.coll;
    alt.op.binding = root;
    alt.op.index_name = idx.name;
    alt.op.index_pred = key_conjunct;
    double residual_evals = 0.0;
    if (!residual.empty()) {
      residual_evals = ConjunctEvaluations(OrderBySelectivity(ctx, &residual));
      alt.op.pred = ScalarExpr::CombineConjuncts(std::move(residual));
    }
    alt.delivered.in_memory = BindingSet::Of(root);
    if (ref_steps == 0) {
      // A simple index scans its entries in key order: the output is
      // sorted on the key attribute (path indexes order by the *path*
      // value, which is not an attribute of the delivered root).
      alt.delivered.sort = SortSpec{root, key_field};
    }
    alt.local_cost =
        IndexScanCost(*ctx.cost_model, matches, idx.clustered, residual_evals,
                      *ctx.qctx->catalog, chain.get_op.coll.type);
    out->push_back(std::move(alt));
  }

  /// Key comparisons the index can answer: attr (==|<|<=|>|>=) const.
  static bool IsKeyComparison(const ScalarExpr& e, BindingId binding,
                              FieldId field) {
    if (e.kind() != ScalarExpr::Kind::kCmp || e.cmp_op() == CmpOp::kNe) {
      return false;
    }
    const ScalarExprPtr& l = e.children()[0];
    const ScalarExprPtr& r = e.children()[1];
    auto is_attr = [&](const ScalarExprPtr& a) {
      return a->kind() == ScalarExpr::Kind::kAttr && a->binding() == binding &&
             a->field() == field;
    };
    auto is_const = [](const ScalarExprPtr& a) {
      return a->kind() == ScalarExpr::Kind::kConst;
    };
    return (is_attr(l) && is_const(r)) || (is_attr(r) && is_const(l));
  }
};

// ---------------------------------------------------------------------------
// Mat -> Assembly (assembly *implements* materialize; it also acts as the
// present-in-memory enforcer, see enforcers.cc)
// ---------------------------------------------------------------------------
class MatToAssembly : public ImplRule {
 public:
  const char* name() const override { return kImplAssembly; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kMat; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId child = ctx.memo->Find(mexpr.children[0]);
    MatStep step{mexpr.op.source, mexpr.op.field, mexpr.op.target};
    PhysProps child_req = required;
    child_req.in_memory.Remove(mexpr.op.target);
    if (step.field != kInvalidField) {
      child_req.in_memory.Add(step.source);
    }
    child_req.in_memory = LoadableBindings(child_req.in_memory, *ctx.qctx);
    // Assembly preserves row order — the windowed elevator reorders its
    // *fetches* by page, never the emitted rows — so a required sort passes
    // through. It can drop dangling-reference rows, though, so a required
    // limit cannot.
    child_req.limit = 0;

    double in_card = GroupCard(ctx, child);
    auto emit = [&](bool warm) {
      PhysAlternative alt;
      alt.op.kind = PhysOpKind::kAssembly;
      alt.op.mats = {step};
      alt.op.window = ctx.cost_model->opts().assembly_window;
      alt.op.warm_start = warm;
      alt.inputs = {{child, child_req}};
      alt.delivered = child_req;
      alt.delivered.in_memory.Add(mexpr.op.target);
      alt.local_cost =
          AssemblyCost(*ctx.cost_model, *ctx.qctx->catalog, ctx.qctx->bindings,
                       in_card, alt.op.mats, /*window=*/0, warm);
      out->push_back(std::move(alt));
    };
    emit(false);
    if (ctx.opts->enable_warm_start_assembly &&
        ctx.qctx->catalog
            ->TypeCardinality(ctx.qctx->bindings.def(mexpr.op.target).type)
            .has_value()) {
      emit(true);
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join -> Hybrid Hash Join (build on the left input)
// ---------------------------------------------------------------------------
class JoinToHybridHashJoin : public ImplRule {
 public:
  const char* name() const override { return kImplHybridHashJoin; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId left = ctx.memo->Find(mexpr.children[0]);
    GroupId right = ctx.memo->Find(mexpr.children[1]);
    BindingSet ls = GroupScope(ctx, left), rs = GroupScope(ctx, right);
    // Every conjunct must be an equality across the two sides. The algorithm
    // builds its hash table on the left input; for reference-equality
    // conjuncts (ref == self) the *referenced* (OID) side must be the build
    // side — the orientation the paper's algorithm supports ("equality of a
    // reference attribute on one side and object identifiers on the other").
    // Join commutativity is what makes the other orientation reachable, so
    // disabling it forces pointer-chasing plans (paper Figure 7).
    for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(mexpr.op.pred)) {
      if (c->kind() != ScalarExpr::Kind::kCmp || c->cmp_op() != CmpOp::kEq) {
        return Status::OK();
      }
      BindingSet lrefs = c->children()[0]->ReferencedBindings();
      BindingSet rrefs = c->children()[1]->ReferencedBindings();
      if (lrefs.Empty() || rrefs.Empty()) return Status::OK();
      bool straight = ls.ContainsAll(lrefs) && rs.ContainsAll(rrefs);
      bool swapped = rs.ContainsAll(lrefs) && ls.ContainsAll(rrefs);
      if (!straight && !swapped) return Status::OK();
      const ScalarExpr* left_side =
          straight ? c->children()[0].get() : c->children()[1].get();
      const ScalarExpr* right_side =
          straight ? c->children()[1].get() : c->children()[0].get();
      bool left_is_ref_binding =
          left_side->kind() == ScalarExpr::Kind::kSelf &&
          ctx.qctx->bindings.def(left_side->binding()).is_ref;
      bool right_is_ref_binding =
          right_side->kind() == ScalarExpr::Kind::kSelf &&
          ctx.qctx->bindings.def(right_side->binding()).is_ref;
      // A "self" of an object binding is the OID side; a "self" of a bare
      // reference binding (unnest output) is a reference value.
      bool left_is_oid = left_side->kind() == ScalarExpr::Kind::kSelf &&
                         !left_is_ref_binding;
      bool right_is_oid = right_side->kind() == ScalarExpr::Kind::kSelf &&
                          !right_is_ref_binding;
      if (right_is_oid && !left_is_oid) {
        return Status::OK();  // referenced side must be the build (left) side
      }
    }
    BindingSet pred_loads = LoadRequirements(mexpr.op.pred, *ctx.qctx);
    PhysProps lreq, rreq;
    lreq.in_memory = required.in_memory.Union(pred_loads).Intersect(ls);
    rreq.in_memory = required.in_memory.Union(pred_loads).Intersect(rs);

    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kHybridHashJoin;
    alt.op.pred = mexpr.op.pred;
    alt.inputs = {{left, lreq}, {right, rreq}};
    alt.delivered.in_memory = lreq.in_memory.Union(rreq.in_memory);
    const LogicalProps& lp = ctx.memo->group(left).props;
    const LogicalProps& rp = ctx.memo->group(right).props;
    alt.local_cost = HybridHashJoinCost(*ctx.cost_model, lp.card,
                                        lp.tuple_bytes, rp.card, rp.tuple_bytes);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join -> Pointer Join: when the predicate is a single reference-equality
// (s.f == t.self) and the right side is (an extent scan of) the referenced
// population, dereference each left tuple's pointer directly.
// ---------------------------------------------------------------------------
class JoinToPointerJoin : public ImplRule {
 public:
  const char* name() const override { return kImplPointerJoin; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId left = ctx.memo->Find(mexpr.children[0]);
    GroupId right = ctx.memo->Find(mexpr.children[1]);
    std::vector<ScalarExprPtr> conjuncts =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);
    if (conjuncts.size() != 1) return Status::OK();
    const ScalarExprPtr& c = conjuncts[0];
    if (c->kind() != ScalarExpr::Kind::kCmp || c->cmp_op() != CmpOp::kEq) {
      return Status::OK();
    }
    // One side must be <ref expr on left scope>, the other t.self where the
    // right side is exactly an extent scan of t.
    const ScalarExpr* ref_side = nullptr;
    const ScalarExpr* self_side = nullptr;
    for (int i = 0; i < 2; ++i) {
      const ScalarExprPtr& a = c->children()[i];
      const ScalarExprPtr& b = c->children()[1 - i];
      if (b->kind() == ScalarExpr::Kind::kSelf &&
          GroupScope(ctx, right).Contains(b->binding()) &&
          GroupScope(ctx, left).ContainsAll(a->ReferencedBindings())) {
        ref_side = a.get();
        self_side = b.get();
        break;
      }
    }
    if (ref_side == nullptr) return Status::OK();
    BindingId t = self_side->binding();
    // The right group must be a bare extent scan of t's whole population.
    bool right_is_extent_get = false;
    for (MExprId id : ctx.memo->group(right).mexprs) {
      const LogicalMExpr& m = ctx.memo->mexpr(id);
      if (m.op.kind == LogicalOpKind::kGet && m.op.binding == t &&
          m.op.coll.kind == CollectionId::Kind::kExtent) {
        right_is_extent_get = true;
        break;
      }
    }
    if (!right_is_extent_get) return Status::OK();

    MatStep step;
    step.target = t;
    if (ref_side->kind() == ScalarExpr::Kind::kAttr) {
      step.source = ref_side->binding();
      step.field = ref_side->field();
    } else if (ref_side->kind() == ScalarExpr::Kind::kSelf &&
               ctx.qctx->bindings.def(ref_side->binding()).is_ref) {
      step.source = ref_side->binding();
      step.field = kInvalidField;
    } else {
      return Status::OK();
    }

    PhysProps lreq;
    lreq.in_memory = required.in_memory.Intersect(GroupScope(ctx, left));
    if (step.field != kInvalidField) lreq.in_memory.Add(step.source);
    lreq.in_memory = LoadableBindings(lreq.in_memory, *ctx.qctx);

    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kPointerJoin;
    alt.op.pred = mexpr.op.pred;
    alt.op.mats = {step};
    alt.inputs = {{left, lreq}};
    alt.delivered = lreq;
    alt.delivered.in_memory.Add(t);
    alt.local_cost =
        PointerJoinCost(*ctx.cost_model, *ctx.qctx->catalog,
                        GroupCard(ctx, left), ctx.qctx->bindings.def(t).type);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join -> Nested Loops: the always-applicable fallback — any predicate,
// including the constant-true predicate of a cartesian FROM combination.
// ---------------------------------------------------------------------------
class JoinToNestedLoops : public ImplRule {
 public:
  const char* name() const override { return kImplNestedLoops; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId left = ctx.memo->Find(mexpr.children[0]);
    GroupId right = ctx.memo->Find(mexpr.children[1]);
    BindingSet pred_loads = LoadRequirements(mexpr.op.pred, *ctx.qctx);
    PhysProps lreq, rreq;
    lreq.in_memory =
        required.in_memory.Union(pred_loads).Intersect(GroupScope(ctx, left));
    rreq.in_memory =
        required.in_memory.Union(pred_loads).Intersect(GroupScope(ctx, right));

    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kNestedLoops;
    alt.op.pred = mexpr.op.pred;
    alt.inputs = {{left, lreq}, {right, rreq}};
    alt.delivered.in_memory = lreq.in_memory.Union(rreq.in_memory);
    const LogicalProps& lp = ctx.memo->group(left).props;
    const LogicalProps& rp = ctx.memo->group(right).props;
    alt.local_cost =
        NestedLoopsCost(*ctx.cost_model, lp.card, lp.tuple_bytes, rp.card);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Project -> Alg-Project
// ---------------------------------------------------------------------------
class ProjectToAlgProject : public ImplRule {
 public:
  const char* name() const override { return kImplAlgProject; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kProject; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId child = ctx.memo->Find(mexpr.children[0]);
    PhysProps child_req;
    child_req.in_memory = LoadRequirements(mexpr.op.emit, *ctx.qctx);
    // Alg-Project preserves input order and is 1:1: a required sort order
    // and limit flow down to the (wider-scoped) input, where they can
    // actually be produced.
    child_req.sort = required.sort;
    child_req.limit = required.limit;
    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kAlgProject;
    alt.op.emit = mexpr.op.emit;
    alt.inputs = {{child, child_req}};
    alt.delivered = required;  // output objects are freshly constructed
    const LogicalProps& props = ctx.memo->group(ctx.memo->Find(mexpr.group)).props;
    alt.local_cost = AlgProjectCost(*ctx.cost_model, props.card, props.tuple_bytes);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Unnest -> Alg-Unnest
// ---------------------------------------------------------------------------
class UnnestToAlgUnnest : public ImplRule {
 public:
  const char* name() const override { return kImplAlgUnnest; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kUnnest; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    GroupId child = ctx.memo->Find(mexpr.children[0]);
    PhysProps child_req = required;
    child_req.in_memory.Add(mexpr.op.source);
    child_req.in_memory =
        LoadableBindings(child_req.in_memory.Intersect(GroupScope(ctx, child)),
                         *ctx.qctx);
    // Unnest preserves input order but is 1:many: a limit on the expanded
    // output says nothing about how many input rows are needed.
    child_req.limit = 0;
    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kAlgUnnest;
    alt.op.source = mexpr.op.source;
    alt.op.field = mexpr.op.field;
    alt.op.target = mexpr.op.target;
    alt.inputs = {{child, child_req}};
    alt.delivered = child_req;
    double out_card = ctx.memo->group(ctx.memo->Find(mexpr.group)).props.card;
    alt.local_cost = AlgUnnestCost(*ctx.cost_model, out_card);
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join -> Merge Join (extension; requires sorted inputs via the Sort
// enforcer, demonstrating sort-order as a physical property)
// ---------------------------------------------------------------------------
class JoinToMergeJoin : public ImplRule {
 public:
  const char* name() const override { return kImplMergeJoin; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               const PhysProps& required,
               std::vector<PhysAlternative>* out) const override {
    if (!ctx.opts->enable_merge_join) return Status::OK();
    std::vector<ScalarExprPtr> conjuncts =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);
    if (conjuncts.size() != 1) return Status::OK();
    const ScalarExprPtr& c = conjuncts[0];
    if (c->kind() != ScalarExpr::Kind::kCmp || c->cmp_op() != CmpOp::kEq) {
      return Status::OK();
    }
    const ScalarExprPtr& a = c->children()[0];
    const ScalarExprPtr& b = c->children()[1];
    if (a->kind() != ScalarExpr::Kind::kAttr ||
        b->kind() != ScalarExpr::Kind::kAttr) {
      return Status::OK();
    }
    GroupId left = ctx.memo->Find(mexpr.children[0]);
    GroupId right = ctx.memo->Find(mexpr.children[1]);
    const ScalarExpr* la = a.get();
    const ScalarExpr* ra = b.get();
    if (GroupScope(ctx, right).Contains(la->binding())) std::swap(la, ra);
    if (!GroupScope(ctx, left).Contains(la->binding()) ||
        !GroupScope(ctx, right).Contains(ra->binding())) {
      return Status::OK();
    }
    PhysProps lreq, rreq;
    lreq.in_memory = required.in_memory.Intersect(GroupScope(ctx, left));
    lreq.in_memory.Add(la->binding());
    lreq.sort = SortSpec{la->binding(), la->field()};
    rreq.in_memory = required.in_memory.Intersect(GroupScope(ctx, right));
    rreq.in_memory.Add(ra->binding());
    rreq.sort = SortSpec{ra->binding(), ra->field()};

    PhysAlternative alt;
    alt.op.kind = PhysOpKind::kMergeJoin;
    alt.op.pred = mexpr.op.pred;
    alt.op.sort = lreq.sort;
    alt.inputs = {{left, lreq}, {right, rreq}};
    alt.delivered.in_memory = lreq.in_memory.Union(rreq.in_memory);
    alt.delivered.sort = lreq.sort;  // merge join preserves left order
    alt.local_cost = MergeJoinCost(*ctx.cost_model, GroupCard(ctx, left),
                                   GroupCard(ctx, right));
    out->push_back(std::move(alt));
    return Status::OK();
  }
};

}  // namespace

std::vector<std::unique_ptr<ImplRule>> MakeDefaultImplRules() {
  std::vector<std::unique_ptr<ImplRule>> rules;
  rules.push_back(std::make_unique<GetToFileScan>());
  rules.push_back(std::make_unique<SelectToFilter>());
  rules.push_back(std::make_unique<CollapseToIndexScan>());
  rules.push_back(std::make_unique<MatToAssembly>());
  rules.push_back(std::make_unique<JoinToHybridHashJoin>());
  rules.push_back(std::make_unique<JoinToPointerJoin>());
  rules.push_back(std::make_unique<JoinToNestedLoops>());
  rules.push_back(std::make_unique<ProjectToAlgProject>());
  rules.push_back(std::make_unique<UnnestToAlgUnnest>());
  rules.push_back(std::make_unique<JoinToMergeJoin>());
  return rules;
}

}  // namespace oodb
