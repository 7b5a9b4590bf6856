#include "src/rules/transformations.h"

#include <algorithm>

#include "src/rules/expr_rewrites.h"

namespace oodb {

namespace {

BindingSet GroupScope(OptContext& ctx, GroupId g) {
  return ctx.memo->group(g).props.scope;
}

/// A conjunct with the bindings it references.
struct Conjunct {
  ScalarExprPtr expr;
  BindingSet refs;
};

/// The conjuncts of `pred` with their references, computed once per firing
/// rather than once per bound child m-expr.
std::vector<Conjunct> RefConjuncts(const ScalarExprPtr& pred) {
  std::vector<Conjunct> out;
  for (ScalarExprPtr& cj : ScalarExpr::SplitConjuncts(pred)) {
    BindingSet refs = cj->ReferencedBindings();
    out.push_back(Conjunct{std::move(cj), refs});
  }
  return out;
}

}  // namespace

ScalarExprPtr CanonicalConjunction(std::vector<ScalarExprPtr> conjuncts) {
  // Drop constant-true conjuncts (simplification uses them as the predicate
  // of cartesian FROM combinations) as soon as a real conjunct is present.
  std::vector<ScalarExprPtr> kept;
  for (ScalarExprPtr& c : conjuncts) {
    if (!IsConstTrue(c)) kept.push_back(std::move(c));
  }
  if (kept.empty()) kept.push_back(ScalarExpr::Const(Value::Int(1)));
  std::sort(kept.begin(), kept.end(),
            [](const ScalarExprPtr& a, const ScalarExprPtr& b) {
              return a->Hash() < b->Hash();
            });
  return ScalarExpr::CombineConjuncts(std::move(kept));
}

namespace {

// ---------------------------------------------------------------------------
// Mat_a(Mat_b(X)) -> Mat_b(Mat_a(X))   [if a's source is in X's scope]
// ---------------------------------------------------------------------------
class MatMatCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleMatMatCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kMat; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kMat, out,
                [&](const LogicalMExpr& b) {
                  GroupId x = ctx.memo->Find(b.children[0]);
                  if (!GroupScope(ctx, x).Contains(mexpr.op.source)) return;
                  out->push_back(RuleExpr::Op(
                      b.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select_p(Mat_b(X)) -> Mat_b(Select_p(X))   [if p does not read b's target]
// ---------------------------------------------------------------------------
class SelectMatCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectMatCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    BindingSet refs = mexpr.op.pred->ReferencedBindings();
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kMat, out,
                [&](const LogicalMExpr& b) {
                  if (refs.Contains(b.op.target)) return;
                  GroupId x = ctx.memo->Find(b.children[0]);
                  out->push_back(RuleExpr::Op(
                      b.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Mat_a(Select_p(X)) -> Select_p(Mat_a(X))
// ---------------------------------------------------------------------------
class MatSelectCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleMatSelectCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kMat; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kSelect, out,
                [&](const LogicalMExpr& sel) {
                  GroupId x = ctx.memo->Find(sel.children[0]);
                  if (!GroupScope(ctx, x).Contains(mexpr.op.source)) return;
                  out->push_back(RuleExpr::Op(
                      sel.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select_{c1 and ... and cn}(X) -> Select_{ci}(Select_{rest}(X))
// ---------------------------------------------------------------------------
class SelectSplit : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectSplit; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    (void)ctx;
    std::vector<ScalarExprPtr> conjuncts =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);
    if (conjuncts.size() < 2) return Status::OK();
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::vector<ScalarExprPtr> rest;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (j != i) rest.push_back(conjuncts[j]);
      }
      out->push_back(RuleExpr::Op(
          LogicalOp::Select(conjuncts[i]),
          {RuleExpr::Op(LogicalOp::Select(CanonicalConjunction(std::move(rest))),
                        {RuleExpr::GroupLeaf(mexpr.children[0])})}));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select_p(Select_q(X)) -> Select_{p and q}(X)
// ---------------------------------------------------------------------------
class SelectMerge : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectMerge; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    const std::vector<ScalarExprPtr> ps =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);
    ChildMExprs(
        ctx, mexpr, 0, LogicalOpKind::kSelect, out,
        [&](const LogicalMExpr& sel) {
          std::vector<ScalarExprPtr> conjuncts = ps;
          std::vector<ScalarExprPtr> qs =
              ScalarExpr::SplitConjuncts(sel.op.pred);
          conjuncts.insert(conjuncts.end(), qs.begin(), qs.end());
          out->push_back(RuleExpr::Op(
              LogicalOp::Select(CanonicalConjunction(std::move(conjuncts))),
              {RuleExpr::GroupLeaf(ctx.memo->Find(sel.children[0]))}));
        });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select_p(Unnest_u(X)) -> Unnest_u(Select_p(X))  [if p does not read u's
// target]
// ---------------------------------------------------------------------------
class SelectUnnestCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectUnnestCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    BindingSet refs = mexpr.op.pred->ReferencedBindings();
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kUnnest, out,
                [&](const LogicalMExpr& u) {
                  if (refs.Contains(u.op.target)) return;
                  GroupId x = ctx.memo->Find(u.children[0]);
                  out->push_back(RuleExpr::Op(
                      u.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Unnest_u(Select_p(X)) -> Select_p(Unnest_u(X))
// ---------------------------------------------------------------------------
class UnnestSelectCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectUnnestCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kUnnest; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kSelect, out,
                [&](const LogicalMExpr& sel) {
                  GroupId x = ctx.memo->Find(sel.children[0]);
                  if (!GroupScope(ctx, x).Contains(mexpr.op.source)) return;
                  out->push_back(RuleExpr::Op(
                      sel.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Mat_a(Unnest_u(X)) -> Unnest_u(Mat_a(X))  [if a's source is in X's scope]
// ---------------------------------------------------------------------------
class MatUnnestCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleMatUnnestCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kMat; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kUnnest, out,
                [&](const LogicalMExpr& u) {
                  GroupId x = ctx.memo->Find(u.children[0]);
                  if (!GroupScope(ctx, x).Contains(mexpr.op.source)) return;
                  out->push_back(RuleExpr::Op(
                      u.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Unnest_u(Mat_a(X)) -> Mat_a(Unnest_u(X))  [if u's source is in X's scope]
// ---------------------------------------------------------------------------
class UnnestMatCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleUnnestMatCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kUnnest; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    ChildMExprs(ctx, mexpr, 0, LogicalOpKind::kMat, out,
                [&](const LogicalMExpr& a) {
                  GroupId x = ctx.memo->Find(a.children[0]);
                  if (!GroupScope(ctx, x).Contains(mexpr.op.source)) return;
                  out->push_back(RuleExpr::Op(
                      a.op,
                      {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x)})}));
                });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Mat(s.f -> t)(X) -> Join_{s.f == t.self}(X, Get extent(T): t)
// The paper's key new rule: "if the scope introduced by a materialize
// operator is actually a scannable object, the materialize operator can be
// transformed into a join" (Figure 4).
// ---------------------------------------------------------------------------
class MatToJoin : public TransformationRule {
 public:
  const char* name() const override { return kRuleMatToJoin; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kMat; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    TypeId t = ctx.qctx->bindings.def(mexpr.op.target).type;
    if (!ctx.qctx->catalog->HasExtent(t)) return Status::OK();
    ScalarExprPtr pred;
    if (mexpr.op.field == kInvalidField) {
      pred = ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Self(mexpr.op.source),
                             ScalarExpr::Self(mexpr.op.target));
    } else {
      pred = ScalarExpr::RefEq(mexpr.op.source, mexpr.op.field, mexpr.op.target);
    }
    out->push_back(RuleExpr::Op(
        LogicalOp::Join(pred),
        {RuleExpr::GroupLeaf(mexpr.children[0]),
         RuleExpr::Op(
             LogicalOp::Get(CollectionId::Extent(t), mexpr.op.target))}));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join_p(A, B) -> Join_p(B, A)
// ---------------------------------------------------------------------------
class JoinCommute : public TransformationRule {
 public:
  const char* name() const override { return kRuleJoinCommute; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    (void)ctx;
    out->push_back(RuleExpr::Op(mexpr.op,
                                {RuleExpr::GroupLeaf(mexpr.children[1]),
                                 RuleExpr::GroupLeaf(mexpr.children[0])}));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join_p(Join_q(A, B), C) -> Join_{outer}(A, Join_{inner}(B, C))
// ---------------------------------------------------------------------------
class JoinAssoc : public TransformationRule {
 public:
  const char* name() const override { return kRuleJoinAssoc; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    GroupId c = ctx.memo->Find(mexpr.children[1]);
    const std::vector<Conjunct> ps = RefConjuncts(mexpr.op.pred);
    ChildMExprs(
        ctx, mexpr, 0, LogicalOpKind::kJoin, out,
        [&](const LogicalMExpr& lower) {
          GroupId a = ctx.memo->Find(lower.children[0]);
          GroupId b = ctx.memo->Find(lower.children[1]);
          BindingSet inner_scope =
              GroupScope(ctx, b).Union(GroupScope(ctx, c));
          std::vector<ScalarExprPtr> inner, outer;
          auto place = [&](const ScalarExprPtr& cj, BindingSet refs) {
            (inner_scope.ContainsAll(refs) ? inner : outer).push_back(cj);
          };
          for (const Conjunct& cj : ps) place(cj.expr, cj.refs);
          for (const ScalarExprPtr& cj :
               ScalarExpr::SplitConjuncts(lower.op.pred)) {
            place(cj, cj->ReferencedBindings());
          }
          if (inner.empty() || outer.empty()) return;
          out->push_back(RuleExpr::Op(
              LogicalOp::Join(CanonicalConjunction(std::move(outer))),
              {RuleExpr::GroupLeaf(a),
               RuleExpr::Op(
                   LogicalOp::Join(CanonicalConjunction(std::move(inner))),
                   {RuleExpr::GroupLeaf(b), RuleExpr::GroupLeaf(c)})}));
        });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select_p(Join_q(A, B)) -> push single-side conjuncts of p below the join
// ---------------------------------------------------------------------------
class SelectJoinPush : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectJoinPush; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    const std::vector<Conjunct> ps = RefConjuncts(mexpr.op.pred);
    ChildMExprs(
        ctx, mexpr, 0, LogicalOpKind::kJoin, out,
        [&](const LogicalMExpr& j) {
          GroupId a = ctx.memo->Find(j.children[0]);
          GroupId b = ctx.memo->Find(j.children[1]);
          BindingSet sa = GroupScope(ctx, a), sb = GroupScope(ctx, b);
          std::vector<ScalarExprPtr> pa, pb, rest;
          for (const Conjunct& cj : ps) {
            if (sa.ContainsAll(cj.refs)) {
              pa.push_back(cj.expr);
            } else if (sb.ContainsAll(cj.refs)) {
              pb.push_back(cj.expr);
            } else {
              rest.push_back(cj.expr);
            }
          }
          if (pa.empty() && pb.empty()) return;
          RuleExprPtr left = RuleExpr::GroupLeaf(a);
          if (!pa.empty()) {
            left = RuleExpr::Op(
                LogicalOp::Select(CanonicalConjunction(std::move(pa))),
                {left});
          }
          RuleExprPtr right = RuleExpr::GroupLeaf(b);
          if (!pb.empty()) {
            right = RuleExpr::Op(
                LogicalOp::Select(CanonicalConjunction(std::move(pb))),
                {right});
          }
          RuleExprPtr join = RuleExpr::Op(j.op, {left, right});
          if (!rest.empty()) {
            join = RuleExpr::Op(
                LogicalOp::Select(CanonicalConjunction(std::move(rest))),
                {join});
          }
          out->push_back(join);
        });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Select_p(Join_q(A, B)) -> Join_{p and q}(A, B)
// ---------------------------------------------------------------------------
class SelectJoinAbsorb : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectJoinAbsorb; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    const std::vector<ScalarExprPtr> ps =
        ScalarExpr::SplitConjuncts(mexpr.op.pred);
    ChildMExprs(
        ctx, mexpr, 0, LogicalOpKind::kJoin, out,
        [&](const LogicalMExpr& j) {
          std::vector<ScalarExprPtr> conjuncts = ps;
          std::vector<ScalarExprPtr> qs = ScalarExpr::SplitConjuncts(j.op.pred);
          conjuncts.insert(conjuncts.end(), qs.begin(), qs.end());
          out->push_back(RuleExpr::Op(
              LogicalOp::Join(CanonicalConjunction(std::move(conjuncts))),
              {RuleExpr::GroupLeaf(ctx.memo->Find(j.children[0])),
               RuleExpr::GroupLeaf(ctx.memo->Find(j.children[1]))}));
        });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Mat_a(Join_q(A, B)) -> Join_q(Mat_a(A), B) or Join_q(A, Mat_a(B))
// ---------------------------------------------------------------------------
class MatJoinPush : public TransformationRule {
 public:
  const char* name() const override { return kRuleMatJoinPush; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kMat; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    ChildMExprs(
        ctx, mexpr, 0, LogicalOpKind::kJoin, out,
        [&](const LogicalMExpr& j) {
          GroupId a = ctx.memo->Find(j.children[0]);
          GroupId b = ctx.memo->Find(j.children[1]);
          if (GroupScope(ctx, a).Contains(mexpr.op.source)) {
            out->push_back(RuleExpr::Op(
                j.op, {RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(a)}),
                       RuleExpr::GroupLeaf(b)}));
          }
          if (GroupScope(ctx, b).Contains(mexpr.op.source)) {
            out->push_back(RuleExpr::Op(
                j.op, {RuleExpr::GroupLeaf(a),
                       RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(b)})}));
          }
        });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join_q(Mat_a(X), B) -> Mat_a(Join_q(X, B))   [if q does not read a's
// target; symmetric for the right child]
// ---------------------------------------------------------------------------
class MatJoinPull : public TransformationRule {
 public:
  const char* name() const override { return kRuleMatJoinPull; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kJoin; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    BindingSet refs = mexpr.op.pred->ReferencedBindings();
    for (int side = 0; side < 2; ++side) {
      GroupId other = ctx.memo->Find(mexpr.children[1 - side]);
      ChildMExprs(
          ctx, mexpr, side, LogicalOpKind::kMat, out,
          [&](const LogicalMExpr& a) {
            if (refs.Contains(a.op.target)) return;
            GroupId x = ctx.memo->Find(a.children[0]);
            RuleExprPtr join =
                side == 0
                    ? RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(x),
                                              RuleExpr::GroupLeaf(other)})
                    : RuleExpr::Op(mexpr.op, {RuleExpr::GroupLeaf(other),
                                              RuleExpr::GroupLeaf(x)});
            out->push_back(RuleExpr::Op(a.op, {join}));
          });
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Set-operator commutativity / associativity (Union, Intersect)
// ---------------------------------------------------------------------------
class SetOpCommute : public TransformationRule {
 public:
  explicit SetOpCommute(LogicalOpKind kind) : kind_(kind) {}
  const char* name() const override { return kRuleSetOpCommute; }
  LogicalOpKind root_kind() const override { return kind_; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    (void)ctx;
    out->push_back(RuleExpr::Op(mexpr.op,
                                {RuleExpr::GroupLeaf(mexpr.children[1]),
                                 RuleExpr::GroupLeaf(mexpr.children[0])}));
    return Status::OK();
  }

 private:
  LogicalOpKind kind_;
};

class SetOpAssoc : public TransformationRule {
 public:
  explicit SetOpAssoc(LogicalOpKind kind) : kind_(kind) {}
  const char* name() const override { return kRuleSetOpAssoc; }
  LogicalOpKind root_kind() const override { return kind_; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    GroupId c = ctx.memo->Find(mexpr.children[1]);
    ChildMExprs(
        ctx, mexpr, 0, kind_, out, [&](const LogicalMExpr& lower) {
          out->push_back(RuleExpr::Op(
              LogicalOp::SetOp(kind_),
              {RuleExpr::GroupLeaf(ctx.memo->Find(lower.children[0])),
               RuleExpr::Op(
                   LogicalOp::SetOp(kind_),
                   {RuleExpr::GroupLeaf(ctx.memo->Find(lower.children[1])),
                    RuleExpr::GroupLeaf(c)})}));
        });
    return Status::OK();
  }

 private:
  LogicalOpKind kind_;
};

}  // namespace

std::vector<std::unique_ptr<TransformationRule>> MakeDefaultTransformations() {
  std::vector<std::unique_ptr<TransformationRule>> rules;
  rules.push_back(std::make_unique<MatMatCommute>());
  rules.push_back(std::make_unique<SelectMatCommute>());
  rules.push_back(std::make_unique<MatSelectCommute>());
  rules.push_back(std::make_unique<SelectSplit>());
  rules.push_back(std::make_unique<SelectMerge>());
  rules.push_back(std::make_unique<SelectUnnestCommute>());
  rules.push_back(std::make_unique<UnnestSelectCommute>());
  rules.push_back(std::make_unique<MatUnnestCommute>());
  rules.push_back(std::make_unique<UnnestMatCommute>());
  rules.push_back(std::make_unique<MatToJoin>());
  rules.push_back(std::make_unique<JoinCommute>());
  rules.push_back(std::make_unique<JoinAssoc>());
  rules.push_back(std::make_unique<SelectJoinPush>());
  rules.push_back(std::make_unique<SelectJoinAbsorb>());
  rules.push_back(std::make_unique<MatJoinPush>());
  rules.push_back(std::make_unique<MatJoinPull>());
  rules.push_back(std::make_unique<SetOpCommute>(LogicalOpKind::kUnion));
  rules.push_back(std::make_unique<SetOpCommute>(LogicalOpKind::kIntersect));
  rules.push_back(std::make_unique<SetOpAssoc>(LogicalOpKind::kUnion));
  rules.push_back(std::make_unique<SetOpAssoc>(LogicalOpKind::kIntersect));
  return rules;
}

}  // namespace oodb
