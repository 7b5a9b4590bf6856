// The physical-plan layer of the verifier: a bottom-up walk proving that
// each operator's *claimed* delivered properties are justified by what the
// subtree below it actually establishes — presence-in-memory by scans,
// assembly/pointer-join materialization steps, sort orders by Sort /
// key-ordered index scans / merge joins and preserved only through
// order-preserving operators, Exchange placement by the parallel.cc
// planting rules — and that cost bookkeeping is additive.
#include "src/verify/verify.h"

#include <algorithm>
#include <cmath>

#include "src/physical/parallel.h"

namespace oodb {

namespace {

int PhysArity(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kFileScan:
    case PhysOpKind::kIndexScan:
      return 0;
    case PhysOpKind::kFilter:
    case PhysOpKind::kPointerJoin:
    case PhysOpKind::kAssembly:
    case PhysOpKind::kAlgProject:
    case PhysOpKind::kAlgUnnest:
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK:
    case PhysOpKind::kExchange:
      return 1;
    case PhysOpKind::kHybridHashJoin:
    case PhysOpKind::kMergeJoin:
    case PhysOpKind::kNestedLoops:
      return 2;
  }
  return 0;
}

/// Does this operator emit its (single, driving) input's rows in input
/// order, so a child-delivered sort survives it? The hash operators
/// reorder; a plain Exchange interleaves worker output (the merging
/// variant is justified separately in CheckSort). Assembly preserves
/// order: its windowed elevator reorders *fetches*, never emitted rows.
bool PreservesOrder(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kFilter:
    case PhysOpKind::kAlgProject:
    case PhysOpKind::kAlgUnnest:
    case PhysOpKind::kPointerJoin:
    case PhysOpKind::kAssembly:
      return true;
    default:
      return false;
  }
}

class PlanChecker {
 public:
  PlanChecker(const QueryContext& ctx, const VerifyOptions& opts,
              VerifyReport* report)
      : ctx_(ctx), opts_(opts), report_(report) {}

  /// Returns the bindings provably loaded in the subtree's output tuples.
  BindingSet Check(const PlanNode& node, const std::string& path,
                   const PlanNode* parent);

 private:
  void Add(const char* inv, const std::string& path, std::string detail) {
    if (static_cast<int>(report_->violations().size()) <
        opts_.max_violations) {
      report_->Add(inv, path, std::move(detail));
    }
  }

  bool ValidBinding(BindingId b, const char* what, const std::string& path,
                    const char* inv) {
    if (ctx_.bindings.has(b)) return true;
    Add(inv, path,
        std::string(what) + " references unknown binding id " +
            std::to_string(b));
    return false;
  }

  std::string Name(BindingId b) const { return ctx_.bindings.def(b).name; }

  void CheckCosts(const PlanNode& node, const std::string& path);
  void CheckScope(const PlanNode& node, const std::string& path,
                  const std::vector<BindingSet>& child_scopes);
  void CheckSort(const PlanNode& node, const std::string& path);
  void CheckLimit(const PlanNode& node, const std::string& path);
  /// Per-step materialization discipline shared by Assembly / PointerJoin:
  /// sources readable when the step runs, targets consistent with the
  /// binding table's derivation records. Returns bindings added.
  BindingSet CheckMatSteps(const PlanNode& node, const std::string& path,
                           BindingSet child_loaded, bool strict_derivation);
  void CheckIndexScan(const PlanNode& node, const std::string& path);
  void CheckHashJoinPred(const PlanNode& node, const std::string& path);
  void CheckExchange(const PlanNode& node, const std::string& path,
                     const PlanNode* parent);
  /// Predicate well-formedness in boolean position over `scope`, plus its
  /// load requirements against `loaded`.
  void CheckPred(const ScalarExprPtr& pred, BindingSet scope,
                 BindingSet loaded, const std::string& path);

  const QueryContext& ctx_;
  const VerifyOptions& opts_;
  VerifyReport* report_;
};

void PlanChecker::CheckCosts(const PlanNode& node, const std::string& path) {
  if (!opts_.check_costs) return;
  if (!std::isfinite(node.local_cost.io_s) ||
      !std::isfinite(node.local_cost.cpu_s) ||
      !std::isfinite(node.total_cost.io_s) ||
      !std::isfinite(node.total_cost.cpu_s)) {
    Add(invariant::kPlanCostFinite, path, "operator cost is not finite");
    return;
  }
  // Exchange is the one operator allowed a negative local cost: its local
  // cost is the parallel speedup net of startup/flow overhead.
  if (node.op.kind != PhysOpKind::kExchange &&
      (node.local_cost.io_s < 0.0 || node.local_cost.cpu_s < 0.0)) {
    Add(invariant::kPlanCostNegative, path,
        "operator has negative local cost");
  }
  double io = node.local_cost.io_s;
  double cpu = node.local_cost.cpu_s;
  for (const PlanNodePtr& c : node.children) {
    io += c->total_cost.io_s;
    cpu += c->total_cost.cpu_s;
  }
  double tol = opts_.cost_rel_tolerance;
  auto close = [tol](double a, double b) {
    return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
  };
  if (!close(io, node.total_cost.io_s) ||
      !close(cpu, node.total_cost.cpu_s)) {
    Add(invariant::kPlanCostTotal, path,
        "total cost is not local + sum of child totals");
  }
}

void PlanChecker::CheckScope(const PlanNode& node, const std::string& path,
                             const std::vector<BindingSet>& child_scopes) {
  BindingSet expected;
  switch (node.op.kind) {
    case PhysOpKind::kFileScan:
      expected = BindingSet::Of(node.op.binding);
      break;
    case PhysOpKind::kIndexScan: {
      // A collapsed index scan implements Select(Mat*(Get)): its scope is
      // the root binding plus any Mat-derived bindings of the collapsed
      // chain (the chain objects are *in scope* though not delivered).
      expected = node.logical.scope;  // checked member-wise below
      if (!node.logical.scope.Contains(node.op.binding)) {
        Add(invariant::kPlanScope, path,
            "index scan scope does not contain its root binding");
      }
      for (BindingId b : node.logical.scope.ToVector()) {
        if (b == node.op.binding) continue;
        if (!ctx_.bindings.has(b) ||
            ctx_.bindings.def(b).origin != BindingOrigin::kMat) {
          Add(invariant::kPlanScope, path,
              "index scan scope carries non-Mat-derived binding '" +
                  (ctx_.bindings.has(b) ? Name(b) : std::to_string(b)) + "'");
        }
      }
      break;
    }
    case PhysOpKind::kFilter:
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK:
    case PhysOpKind::kExchange:
      expected = child_scopes[0];
      break;
    case PhysOpKind::kAssembly:
    case PhysOpKind::kPointerJoin: {
      expected = child_scopes[0];
      for (const MatStep& s : node.op.mats) {
        if (s.target != kInvalidBinding) expected.Add(s.target);
      }
      break;
    }
    case PhysOpKind::kAlgUnnest:
      expected = child_scopes[0];
      if (node.op.target != kInvalidBinding) expected.Add(node.op.target);
      break;
    case PhysOpKind::kAlgProject: {
      for (const ScalarExprPtr& e : node.op.emit) {
        if (e != nullptr) expected = expected.Union(e->ReferencedBindings());
      }
      break;
    }
    case PhysOpKind::kHybridHashJoin:
    case PhysOpKind::kNestedLoops:
    case PhysOpKind::kMergeJoin:
      expected = child_scopes[0].Union(child_scopes[1]);
      if (child_scopes[0].Intersects(child_scopes[1])) {
        Add(invariant::kPlanJoinOverlap, path,
            "join children's scopes overlap");
      }
      break;
  }
  if (!(node.logical.scope == expected)) {
    Add(invariant::kPlanScope, path,
        "operator's logical scope does not match what its inputs and "
        "operator arguments compose to");
  }
  if (!std::isfinite(node.logical.card) || node.logical.card < 0.0) {
    Add(invariant::kPlanScope, path,
        "operator carries a non-finite or negative cardinality estimate");
  }
}

void PlanChecker::CheckSort(const PlanNode& node, const std::string& path) {
  const SortSpec& claimed = node.delivered.sort;
  if (!claimed.IsSorted()) {
    // Claiming less than the subtree establishes is always safe.
    return;
  }
  for (const SortKey& k : claimed.keys) {
    if (!ValidBinding(k.binding, "delivered sort order", path,
                      invariant::kPlanSort)) {
      return;
    }
  }
  bool justified = false;
  std::string why;
  switch (node.op.kind) {
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK:
      // The enforcer sorts on exactly op.sort; a shorter claim is a prefix
      // of it (Satisfies), and the prefix it *skips* sorting must really
      // come in sorted — checked where the operator's keys are validated.
      justified = node.op.sort.Satisfies(claimed);
      why = "operator's keys do not cover the order it claims";
      break;
    case PhysOpKind::kIndexScan: {
      // Only a *simple* (single-field) index scans in an order that is an
      // attribute of the delivered root; path indexes order by the path
      // value. CheckIndexScan validates the key field itself.
      Result<const IndexInfo*> idx = ctx_.catalog->FindIndex(node.op.index_name);
      justified = idx.ok() && (*idx)->path.size() == 1 &&
                  SortSpec(node.op.binding, (*idx)->path[0])
                      .Satisfies(claimed);
      why = "index scan claims an order its index does not establish";
      break;
    }
    case PhysOpKind::kMergeJoin:
      justified = node.op.sort.Satisfies(claimed) &&
                  node.children[0]->delivered.sort.Satisfies(node.op.sort);
      why = "merge join claims an order that is not its (left-preserved) key";
      break;
    case PhysOpKind::kExchange:
      // Only the merging variant carries an order through; its legality
      // (worker plans actually deliver op.sort) is checked in
      // CheckExchange.
      justified = node.op.merge && node.op.sort.Satisfies(claimed);
      why = node.op.merge
                ? "merging exchange claims an order beyond its merge keys"
                : "non-merging exchange interleaves workers and cannot "
                  "deliver an order";
      break;
    default:
      if (PreservesOrder(node.op.kind)) {
        justified = node.children[0]->delivered.sort.Satisfies(claimed);
        why = "order-preserving operator claims an order its input does not "
              "deliver";
      } else {
        why = std::string(PhysOpKindName(node.op.kind)) +
              " does not establish or preserve any order";
      }
      break;
  }
  if (!justified) {
    Add(invariant::kPlanSort, path,
        "claimed sort on " + Name(claimed.keys[0].binding) + ": " + why);
  }
}

/// Row-limit discipline: a delivered limit must be *produced* here (TopK,
/// or a merging Exchange relaying its limited worker streams) or relayed
/// unchanged through a 1:1 operator (Alg-Project). Anything else claiming
/// a limit — or a producer claiming a different count than its operator
/// argument — would let a plan promise a truncation nothing performs.
void PlanChecker::CheckLimit(const PlanNode& node, const std::string& path) {
  const int64_t claimed = node.delivered.limit;
  if (claimed <= 0) return;
  bool justified = false;
  std::string why;
  switch (node.op.kind) {
    case PhysOpKind::kTopK:
      justified = node.op.limit == claimed;
      why = "top-k's row limit differs from the limit it claims";
      break;
    case PhysOpKind::kExchange:
      justified = node.op.merge && node.op.limit == claimed &&
                  node.children[0]->delivered.limit == claimed;
      why = node.op.merge
                ? "merging exchange claims a limit its worker plan does not "
                  "deliver"
                : "non-merging exchange cannot deliver a row limit";
      break;
    case PhysOpKind::kAlgProject:
      justified = node.children[0]->delivered.limit == claimed;
      why = "projection claims a limit its input does not deliver";
      break;
    default:
      why = std::string(PhysOpKindName(node.op.kind)) +
            " neither truncates nor relays a row limit 1:1";
      break;
  }
  if (!justified) {
    Add(invariant::kPlanTopK, path,
        "claimed limit " + std::to_string(claimed) + ": " + why);
  }
}

BindingSet PlanChecker::CheckMatSteps(const PlanNode& node,
                                      const std::string& path,
                                      BindingSet child_loaded,
                                      bool strict_derivation) {
  BindingSet added;
  if (node.op.mats.empty()) {
    Add(invariant::kPlanOpField, path, "materializing operator has no steps");
    return added;
  }
  BindingSet avail = child_loaded;
  const BindingTable& bindings = ctx_.bindings;
  for (const MatStep& step : node.op.mats) {
    if (!ValidBinding(step.target, "materialization target", path,
                      invariant::kPlanMatStep) ||
        !ValidBinding(step.source, "materialization source", path,
                      invariant::kPlanMatStep)) {
      continue;
    }
    const BindingDef& target = bindings.def(step.target);
    const BindingDef& source = bindings.def(step.source);
    if (step.field != kInvalidField) {
      // Dereference of a single-ref field of a loaded source object.
      const TypeDef& st = ctx_.schema().type(source.type);
      if (!st.has_field(step.field) ||
          st.field(step.field).kind != FieldKind::kRef) {
        Add(invariant::kPlanMatStep, path,
            "step loads '" + target.name + "' via a field of '" +
                source.name + "' that is not a single reference");
      } else {
        TypeId ft = st.field(step.field).target_type;
        if (!ctx_.schema().IsSubtypeOf(target.type, ft) &&
            !ctx_.schema().IsSubtypeOf(ft, target.type)) {
          Add(invariant::kPlanMatStep, path,
              "step loads '" + target.name +
                  "' whose type does not match the reference field's "
                  "target type");
        }
      }
      if (!avail.Contains(step.source)) {
        Add(invariant::kPlanMatSource, path,
            "step reads a reference field of '" + source.name +
                "' which is not loaded at that point");
      }
    } else {
      // Resolution of a bare-reference (Unnest output) binding: the value
      // is carried in the tuple slot, no load of the source needed.
      if (!source.is_ref) {
        Add(invariant::kPlanMatStep, path,
            "bare-reference step from '" + source.name +
                "' which is not a reference binding");
      }
      if (!node.logical.scope.Contains(step.source)) {
        Add(invariant::kPlanMatSource, path,
            "bare-reference step from '" + source.name +
                "' which is not in scope");
      }
    }
    if (strict_derivation) {
      // Assembly implements Mat: its targets must be exactly the binding
      // table's recorded derivations (catches rebound steps).
      if (target.origin != BindingOrigin::kMat ||
          target.parent != step.source || target.via_field != step.field) {
        Add(invariant::kPlanMatStep, path,
            "step loads '" + target.name +
                "' by a different derivation than the binding table "
                "records for it");
      }
    }
    added.Add(step.target);
    avail.Add(step.target);
  }
  return added;
}

void PlanChecker::CheckIndexScan(const PlanNode& node,
                                 const std::string& path) {
  if (!ValidBinding(node.op.binding, "index scan", path, invariant::kPlanScan))
    return;
  Result<const CollectionInfo*> coll = ctx_.catalog->FindCollection(node.op.coll);
  if (!coll.ok()) {
    Add(invariant::kPlanScan, path,
        "index scan over unknown collection " +
            node.op.coll.Display(ctx_.schema()));
  }
  Result<const IndexInfo*> found = ctx_.catalog->FindIndex(node.op.index_name);
  if (!found.ok()) {
    Add(invariant::kPlanIndex, path,
        "index '" + node.op.index_name + "' does not exist");
    return;
  }
  const IndexInfo& idx = **found;
  if (!(idx.collection == node.op.coll)) {
    Add(invariant::kPlanIndex, path,
        "index '" + idx.name + "' is over a different collection than the "
        "scan reads");
  }
  if (node.op.index_pred == nullptr) {
    Add(invariant::kPlanOpField, path, "index scan has no key predicate");
    return;
  }
  // The key predicate must be a constant comparison on the index's key
  // attribute: <chain-end binding>.<path.back()> cmp const, where the
  // chain-end binding's Mat derivation walks exactly the index path back
  // to the scanned root binding.
  const ScalarExpr& key = *node.op.index_pred;
  const ScalarExpr* attr = nullptr;
  if (key.kind() == ScalarExpr::Kind::kCmp && key.cmp_op() != CmpOp::kNe &&
      key.children().size() == 2) {
    const ScalarExpr* l = key.children()[0].get();
    const ScalarExpr* r = key.children()[1].get();
    if (l->kind() == ScalarExpr::Kind::kAttr &&
        r->kind() == ScalarExpr::Kind::kConst) {
      attr = l;
    } else if (r->kind() == ScalarExpr::Kind::kAttr &&
               l->kind() == ScalarExpr::Kind::kConst) {
      attr = r;
    }
  }
  if (attr == nullptr) {
    Add(invariant::kPlanIndex, path,
        "index key predicate is not an attribute-vs-constant comparison");
    return;
  }
  if (attr->field() != idx.path.back()) {
    Add(invariant::kPlanIndex, path,
        "index key predicate compares a different field than the index "
        "key '" + std::to_string(idx.path.back()) + "'");
    return;
  }
  // Walk the chain-end binding's derivation up the reference steps of the
  // index path; it must terminate at the scanned root.
  BindingId cur = attr->binding();
  bool chain_ok = ValidBinding(cur, "index key", path, invariant::kPlanIndex);
  for (size_t i = idx.path.size() - 1; chain_ok && i > 0; --i) {
    const BindingDef& def = ctx_.bindings.def(cur);
    if (def.origin != BindingOrigin::kMat ||
        def.via_field != idx.path[i - 1] ||
        !ctx_.bindings.has(def.parent)) {
      chain_ok = false;
      break;
    }
    cur = def.parent;
  }
  if (chain_ok && cur != node.op.binding) chain_ok = false;
  if (!chain_ok) {
    Add(invariant::kPlanIndex, path,
        "index key predicate's binding does not derive from the scanned "
        "root along the index path");
  }
  // Residual conjuncts run on the fetched roots only.
  if (node.op.pred != nullptr &&
      !BindingSet::Of(node.op.binding)
           .ContainsAll(node.op.pred->ReferencedBindings())) {
    Add(invariant::kPlanIndex, path,
        "index scan residual predicate reads bindings other than the "
        "delivered root");
  }
}

void PlanChecker::CheckHashJoinPred(const PlanNode& node,
                                    const std::string& path) {
  BindingSet ls = node.children[0]->logical.scope;
  BindingSet rs = node.children[1]->logical.scope;
  for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(node.op.pred)) {
    if (c->kind() != ScalarExpr::Kind::kCmp || c->cmp_op() != CmpOp::kEq ||
        c->children().size() != 2) {
      Add(invariant::kPlanHashJoinPred, path,
          "hash join conjunct is not an equality");
      continue;
    }
    BindingSet lrefs = c->children()[0]->ReferencedBindings();
    BindingSet rrefs = c->children()[1]->ReferencedBindings();
    if (lrefs.Empty() || rrefs.Empty()) {
      Add(invariant::kPlanHashJoinPred, path,
          "hash join conjunct has a constant side");
      continue;
    }
    bool straight = ls.ContainsAll(lrefs) && rs.ContainsAll(rrefs);
    bool swapped = rs.ContainsAll(lrefs) && ls.ContainsAll(rrefs);
    if (!straight && !swapped) {
      Add(invariant::kPlanHashJoinPred, path,
          "hash join conjunct does not separate into one expression per "
          "side");
      continue;
    }
    const ScalarExpr* build_side =
        straight ? c->children()[0].get() : c->children()[1].get();
    const ScalarExpr* probe_side =
        straight ? c->children()[1].get() : c->children()[0].get();
    auto is_oid = [this](const ScalarExpr* e) {
      return e->kind() == ScalarExpr::Kind::kSelf &&
             ctx_.bindings.has(e->binding()) &&
             !ctx_.bindings.def(e->binding()).is_ref;
    };
    // The algorithm supports reference-vs-identifier conjuncts only with
    // the identified (OID) population on the build (left) side; join
    // commutativity is what makes the other orientation reachable.
    if (is_oid(probe_side) && !is_oid(build_side)) {
      Add(invariant::kPlanHashJoinOrientation, path,
          "object-identifier side of a reference-equality conjunct is on "
          "the probe side; the identified population must be the build "
          "(left) input");
    }
  }
}

void PlanChecker::CheckExchange(const PlanNode& node, const std::string& path,
                                const PlanNode* parent) {
  if (node.op.dop < 2) {
    Add(invariant::kPlanExchange, path,
        "exchange with degree of parallelism " + std::to_string(node.op.dop) +
            " (want >= 2)");
  }
  // Placement: at the root, under a root sort/top-k enforcer chain, or —
  // for the merging variant only — directly under the root projection
  // (ordered delivery flows through the 1:1 projection unharmed).
  const bool parent_ok =
      parent == nullptr || parent->op.kind == PhysOpKind::kSort ||
      parent->op.kind == PhysOpKind::kTopK ||
      (parent->op.kind == PhysOpKind::kAlgProject && node.op.merge);
  if (!parent_ok) {
    Add(invariant::kPlanExchange, path,
        "exchange below a " + std::string(PhysOpKindName(parent->op.kind)) +
            "; it may only sit at the plan root or under a root sort "
            "enforcer chain");
  }
  const PlanNode& child = *node.children[0];
  if (node.op.merge) {
    // Merging variant: each worker sorts its slice; the consumer k-way
    // merge only reproduces the global order if the worker plan really
    // delivers the merge keys.
    if (!node.op.sort.IsSorted()) {
      Add(invariant::kPlanExchange, path,
          "merging exchange has no merge keys");
    } else if (!child.delivered.sort.Satisfies(node.op.sort)) {
      Add(invariant::kPlanExchange, path,
          "merging exchange's worker plan does not deliver the merge keys "
          "sorted");
    }
  } else {
    if (child.delivered.sort.IsSorted()) {
      Add(invariant::kPlanExchange, path,
          "exchange over an ordered input: worker interleaving would "
          "destroy a delivery the plan paid for");
    }
    if (node.delivered.sort.IsSorted()) {
      Add(invariant::kPlanExchange, path,
          "exchange claims a sort order; worker interleaving cannot "
          "deliver one");
    }
    if (child.delivered.limit > 0 || node.delivered.limit > 0) {
      Add(invariant::kPlanExchange, path,
          "non-merging exchange cannot carry a row limit: interleaving "
          "k per-worker prefixes is not the global prefix");
    }
  }
  const PlanNode* driver = FindPartitionableScan(child);
  if (driver == nullptr) {
    Add(invariant::kPlanExchange, path,
        "exchange child has no partitionable driver scan on its probe "
        "spine");
  } else if (driver->op.binding != node.op.partition_binding) {
    Add(invariant::kPlanExchange, path,
        "exchange partition binding '" +
            (ctx_.bindings.has(node.op.partition_binding)
                 ? Name(node.op.partition_binding)
                 : std::to_string(node.op.partition_binding)) +
            "' is not the driver scan's binding '" +
            Name(driver->op.binding) + "'");
  }
}

void PlanChecker::CheckPred(const ScalarExprPtr& pred, BindingSet scope,
                            BindingSet loaded, const std::string& path) {
  if (pred == nullptr) return;
  ScalarType t = CheckScalarExpr(*pred, scope, ctx_, path, report_);
  if (t != ScalarType::kBool && t != ScalarType::kUnknown &&
      !IsTruthyConstant(*pred)) {
    report_->Add(invariant::kExprPredBool, path,
                 std::string("predicate of type ") + ScalarTypeName(t) +
                     " (want bool)");
  }
  BindingSet needs = LoadRequirements(pred, ctx_);
  if (!loaded.ContainsAll(needs)) {
    for (BindingId b : needs.Minus(loaded).ToVector()) {
      Add(invariant::kPlanLoad, path,
          "predicate reads fields of '" +
              (ctx_.bindings.has(b) ? Name(b) : std::to_string(b)) +
              "' which is not loaded at this operator");
    }
  }
}

BindingSet PlanChecker::Check(const PlanNode& node, const std::string& path,
                              const PlanNode* parent) {
  const int arity = PhysArity(node.op.kind);
  if (static_cast<int>(node.children.size()) != arity) {
    Add(invariant::kPlanArity, path,
        std::string(PhysOpKindName(node.op.kind)) + " has " +
            std::to_string(node.children.size()) + " children (want " +
            std::to_string(arity) + ")");
    return BindingSet();
  }

  // Children first: the walk is a bottom-up proof.
  std::vector<BindingSet> child_loaded;
  std::vector<BindingSet> child_scopes;
  child_loaded.reserve(node.children.size());
  child_scopes.reserve(node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    const PlanNode& c = *node.children[i];
    std::string child_path = path + "/";
    if (arity > 1) child_path += std::to_string(i) + ":";
    child_path += PhysOpKindName(c.op.kind);
    child_loaded.push_back(Check(c, child_path, &node));
    child_scopes.push_back(c.logical.scope);
  }

  CheckCosts(node, path);
  CheckScope(node, path, child_scopes);

  // Compute what this operator's output actually has loaded, checking the
  // per-operator discipline along the way.
  BindingSet loaded;
  switch (node.op.kind) {
    case PhysOpKind::kFileScan: {
      if (ValidBinding(node.op.binding, "file scan", path,
                       invariant::kPlanScan)) {
        Result<const CollectionInfo*> coll =
            ctx_.catalog->FindCollection(node.op.coll);
        if (!coll.ok()) {
          Add(invariant::kPlanScan, path,
              "file scan over unknown collection " +
                  node.op.coll.Display(ctx_.schema()));
        } else {
          TypeId bt = ctx_.bindings.def(node.op.binding).type;
          if (!ctx_.schema().IsSubtypeOf((*coll)->id.type, bt) &&
              !ctx_.schema().IsSubtypeOf(bt, (*coll)->id.type)) {
            Add(invariant::kPlanScan, path,
                "file scan binding type does not match the collection's "
                "element type");
          }
        }
        loaded = BindingSet::Of(node.op.binding);
      }
      break;
    }
    case PhysOpKind::kIndexScan: {
      CheckIndexScan(node, path);
      if (ctx_.bindings.has(node.op.binding)) {
        loaded = BindingSet::Of(node.op.binding);
        CheckPred(node.op.pred, node.logical.scope, loaded, path);
      }
      break;
    }
    case PhysOpKind::kFilter: {
      if (node.op.pred == nullptr) {
        Add(invariant::kPlanOpField, path, "filter has no predicate");
      }
      loaded = child_loaded[0];
      CheckPred(node.op.pred, child_scopes[0], loaded, path);
      break;
    }
    case PhysOpKind::kAssembly:
      loaded = child_loaded[0].Union(CheckMatSteps(
          node, path, child_loaded[0], /*strict_derivation=*/true));
      break;
    case PhysOpKind::kPointerJoin: {
      if (node.op.pred == nullptr) {
        Add(invariant::kPlanOpField, path, "pointer join has no predicate");
      }
      BindingSet added = CheckMatSteps(node, path, child_loaded[0],
                                       /*strict_derivation=*/false);
      loaded = child_loaded[0].Union(added);
      CheckPred(node.op.pred, node.logical.scope, loaded, path);
      break;
    }
    case PhysOpKind::kAlgProject: {
      if (node.op.emit.empty()) {
        Add(invariant::kPlanOpField, path, "projection emits nothing");
      }
      for (const ScalarExprPtr& e : node.op.emit) {
        if (e == nullptr) continue;
        CheckScalarExpr(*e, child_scopes[0], ctx_, path, report_);
      }
      BindingSet needs = LoadRequirements(node.op.emit, ctx_);
      if (!child_loaded[0].ContainsAll(needs)) {
        for (BindingId b : needs.Minus(child_loaded[0]).ToVector()) {
          Add(invariant::kPlanLoad, path,
              "emit list reads fields of '" +
                  (ctx_.bindings.has(b) ? Name(b) : std::to_string(b)) +
                  "' which is not loaded below the projection");
        }
      }
      // Output objects are freshly constructed; the projection is a
      // delivery boundary and its claim is what the parent may rely on.
      loaded = node.delivered.in_memory;
      break;
    }
    case PhysOpKind::kAlgUnnest: {
      if (ValidBinding(node.op.source, "unnest", path, invariant::kPlanUnnest) &&
          ValidBinding(node.op.target, "unnest", path,
                       invariant::kPlanUnnest)) {
        const BindingDef& target = ctx_.bindings.def(node.op.target);
        const BindingDef& source = ctx_.bindings.def(node.op.source);
        if (target.origin != BindingOrigin::kUnnest || !target.is_ref ||
            target.parent != node.op.source ||
            target.via_field != node.op.field) {
          Add(invariant::kPlanUnnest, path,
              "unnest target '" + target.name +
                  "' is not the binding table's recorded unnest of '" +
                  source.name + "' via that field");
        }
        const TypeDef& st = ctx_.schema().type(source.type);
        if (!st.has_field(node.op.field) ||
            st.field(node.op.field).kind != FieldKind::kRefSet) {
          Add(invariant::kPlanUnnest, path,
              "unnest field of '" + source.name +
                  "' is not a set of references");
        }
        if (!source.is_ref && !child_loaded[0].Contains(node.op.source)) {
          Add(invariant::kPlanLoad, path,
              "unnest reads the set field of '" + source.name +
                  "' which is not loaded below it");
        }
      }
      loaded = child_loaded[0];  // the revealed target is a bare reference
      break;
    }
    case PhysOpKind::kHybridHashJoin: {
      if (node.op.pred == nullptr) {
        Add(invariant::kPlanOpField, path, "hash join has no predicate");
      } else {
        CheckHashJoinPred(node, path);
      }
      loaded = child_loaded[0].Union(child_loaded[1]);
      CheckPred(node.op.pred, node.logical.scope, loaded, path);
      break;
    }
    case PhysOpKind::kNestedLoops: {
      if (node.op.pred == nullptr) {
        Add(invariant::kPlanOpField, path, "nested loops has no predicate");
      }
      loaded = child_loaded[0].Union(child_loaded[1]);
      CheckPred(node.op.pred, node.logical.scope, loaded, path);
      break;
    }
    case PhysOpKind::kMergeJoin: {
      loaded = child_loaded[0].Union(child_loaded[1]);
      CheckPred(node.op.pred, node.logical.scope, loaded, path);
      std::vector<ScalarExprPtr> conjuncts =
          ScalarExpr::SplitConjuncts(node.op.pred);
      const ScalarExpr* la = nullptr;
      const ScalarExpr* ra = nullptr;
      if (conjuncts.size() == 1 &&
          conjuncts[0]->kind() == ScalarExpr::Kind::kCmp &&
          conjuncts[0]->cmp_op() == CmpOp::kEq &&
          conjuncts[0]->children().size() == 2 &&
          conjuncts[0]->children()[0]->kind() == ScalarExpr::Kind::kAttr &&
          conjuncts[0]->children()[1]->kind() == ScalarExpr::Kind::kAttr) {
        la = conjuncts[0]->children()[0].get();
        ra = conjuncts[0]->children()[1].get();
        if (child_scopes[1].Contains(la->binding())) std::swap(la, ra);
      }
      if (la == nullptr || !child_scopes[0].Contains(la->binding()) ||
          !child_scopes[1].Contains(ra->binding())) {
        Add(invariant::kPlanSort, path,
            "merge join predicate is not a single attribute equality "
            "across its inputs");
      } else {
        SortSpec lkey(la->binding(), la->field());
        SortSpec rkey(ra->binding(), ra->field());
        if (!(node.op.sort == lkey)) {
          Add(invariant::kPlanSort, path,
              "merge join's recorded key is not the left attribute of its "
              "predicate");
        }
        if (!node.children[0]->delivered.sort.Satisfies(lkey) ||
            !node.children[1]->delivered.sort.Satisfies(rkey)) {
          Add(invariant::kPlanSort, path,
              "merge join inputs are not delivered sorted on the join "
              "keys");
        }
      }
      break;
    }
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK: {
      const bool topk = node.op.kind == PhysOpKind::kTopK;
      // TopK with no key is a pure first-k cutoff; a keyless plain Sort is
      // a no-op the optimizer must never emit.
      if (!node.op.sort.IsSorted() && !topk) {
        Add(invariant::kPlanOpField, path, "sort has no key");
      }
      for (const SortKey& k : node.op.sort.keys) {
        if (!ValidBinding(k.binding, "sort key", path, invariant::kPlanSort)) {
          continue;
        }
        const BindingDef& def = ctx_.bindings.def(k.binding);
        const TypeDef& type = ctx_.schema().type(def.type);
        if (!node.logical.scope.Contains(k.binding)) {
          Add(invariant::kPlanSort, path,
              "sort key binding '" + def.name + "' is not in scope");
        }
        if (!type.has_field(k.field)) {
          Add(invariant::kPlanSort, path,
              "sort key field does not exist on '" + def.name + "'");
        }
        if (!def.is_ref && !child_loaded[0].Contains(k.binding)) {
          Add(invariant::kPlanLoad, path,
              "sort reads the key attribute of '" + def.name +
                  "' which is not loaded below it");
        }
      }
      if (topk && node.op.limit <= 0) {
        Add(invariant::kPlanTopK, path,
            "top-k operator carries no positive row limit");
      }
      // A partial sort (sort_prefix > 0) only reorders within runs of equal
      // leading keys; the leading keys themselves must arrive sorted.
      const size_t prefix = static_cast<size_t>(node.op.sort_prefix);
      if (prefix > node.op.sort.size()) {
        Add(invariant::kPlanSort, path,
            "sort prefix length exceeds the operator's key count");
      } else if (prefix > 0 &&
                 !node.children[0]->delivered.sort.Satisfies(
                     node.op.sort.Prefix(prefix))) {
        Add(invariant::kPlanSort, path,
            "partial sort assumes a key prefix its input does not deliver "
            "sorted");
      }
      loaded = child_loaded[0];
      break;
    }
    case PhysOpKind::kExchange:
      CheckExchange(node, path, parent);
      loaded = child_loaded[0];
      break;
  }

  // The universal delivered-property checks: claims must be justified.
  BindingSet claimed = node.delivered.in_memory;
  if (node.op.kind != PhysOpKind::kAlgProject &&
      !loaded.ContainsAll(claimed)) {
    for (BindingId b : claimed.Minus(loaded).ToVector()) {
      Add(invariant::kPlanMemory, path,
          "operator claims '" +
              (ctx_.bindings.has(b) ? Name(b) : std::to_string(b)) +
              "' delivered in memory but nothing below loads it");
    }
  }
  BindingSet loadable = LoadableBindings(node.logical.scope, ctx_);
  if (!loadable.ContainsAll(claimed)) {
    for (BindingId b : claimed.Minus(loadable).ToVector()) {
      Add(invariant::kPlanMemoryScope, path,
          "operator claims '" +
              (ctx_.bindings.has(b) ? Name(b) : std::to_string(b)) +
              "' in memory, which is not a loadable binding of its scope");
    }
  }
  CheckSort(node, path);
  CheckLimit(node, path);
  return loaded;
}

}  // namespace

VerifyReport VerifyPlanReport(const PlanNode& plan, const QueryContext& ctx,
                              const VerifyOptions& opts) {
  VerifyReport report;
  if (ctx.catalog == nullptr) {
    report.Add(invariant::kPlanScope, PhysOpKindName(plan.op.kind),
               "query context has no catalog");
    return report;
  }
  PlanChecker checker(ctx, opts, &report);
  checker.Check(plan, PhysOpKindName(plan.op.kind), /*parent=*/nullptr);
  return report;
}

Status VerifyPlan(const PlanNode& plan, const QueryContext& ctx,
                  const VerifyOptions& opts) {
  return VerifyPlanReport(plan, ctx, opts).ToStatus();
}

}  // namespace oodb
