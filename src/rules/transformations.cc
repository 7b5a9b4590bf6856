#include "src/rules/transformations.h"

#include <utility>

#include "src/rules/join_order.h"

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

/// Select_{conjuncts}(child), its predicate canonical (LogicalOp::Select).
RuleExprPtr SelectOver(std::vector<ScalarExprPtr> conjuncts,
                       RuleExprPtr child) {
  return RuleExpr::Op(
      LogicalOp::Select(ScalarExpr::CombineConjuncts(std::move(conjuncts))),
      {std::move(child)});
}

/// Join_{q and more}(left, right), its predicate canonical.
RuleExprPtr JoinWith(const ScalarExprPtr& q, std::vector<ScalarExprPtr> more,
                     RuleExprPtr left, RuleExprPtr right) {
  for (ScalarExprPtr& c : ScalarExpr::SplitConjuncts(q)) {
    more.push_back(std::move(c));
  }
  return RuleExpr::Op(LogicalOp::Join(CanonicalConjunction(std::move(more))),
                      {std::move(left), std::move(right)});
}

// ---------------------------------------------------------------------------
// Select_p(U_u(X)) -> [Select_above](U_u(Select_below(X))) for U a Mat or an
// Unnest: the conjuncts of p that read u's target stay above, the rest go
// below. No output when every conjunct reads the target.
// ---------------------------------------------------------------------------
class SelectPushBelow : public TransformationRule {
 public:
  SelectPushBelow(LogicalOpKind below, const char* name)
      : below_(below), name_(name) {}
  const char* name() const override { return name_; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    const std::vector<Conjunct> ps = RefConjuncts(mexpr.op.pred);
    ChildMExprs(ctx, mexpr, below_, [&](const LogicalMExpr& u) {
      std::vector<ScalarExprPtr> above, below;
      for (const Conjunct& cj : ps) {
        (cj.refs.Contains(u.op.target) ? above : below).push_back(cj.expr);
      }
      if (below.empty()) return;
      GroupId x = ctx.memo->Find(u.children[0]);
      RuleExprPtr pushed = RuleExpr::Op(
          u.op, {SelectOver(std::move(below), RuleExpr::GroupLeaf(x))});
      out->push_back(above.empty() ? pushed
                                   : SelectOver(std::move(above), pushed));
    });
    return Status::OK();
  }

 private:
  LogicalOpKind below_;
  const char* name_;
};

// ---------------------------------------------------------------------------
// Select_p(Join_q(A, B)) -> push single-side conjuncts of p below the join;
// the conjuncts that read both sides stay in a Select above it. With
// conjuncts for both sides, also push one side's only and keep the other's
// above a join that takes the cross conjuncts p_rest:
// Select_{p_B}(Join_{q and p_rest}(Select_{p_A}(A), B)) and its mirror. A
// Filter over a selective join can beat filtering that whole side first.
// ---------------------------------------------------------------------------
class SelectJoinPush : public TransformationRule {
 public:
  const char* name() const override { return kRuleSelectJoinPush; }
  LogicalOpKind root_kind() const override { return LogicalOpKind::kSelect; }
  bool matches_children() const override { return true; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    const std::vector<Conjunct> ps = RefConjuncts(mexpr.op.pred);
    ChildMExprs(ctx, mexpr, LogicalOpKind::kJoin, [&](const LogicalMExpr& j) {
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
      RuleExprPtr right = RuleExpr::GroupLeaf(b);
      RuleExprPtr pushed_a = pa.empty() ? left : SelectOver(pa, left);
      RuleExprPtr pushed_b = pb.empty() ? right : SelectOver(pb, right);
      RuleExprPtr join = RuleExpr::Op(j.op, {pushed_a, pushed_b});
      if (!rest.empty()) join = SelectOver(rest, std::move(join));
      out->push_back(join);
      if (pa.empty() || pb.empty()) return;
      out->push_back(SelectOver(pb, JoinWith(j.op.pred, rest, pushed_a, right)));
      out->push_back(SelectOver(pa, JoinWith(j.op.pred, rest, left, pushed_b)));
    });
    return Status::OK();
  }
};

}  // namespace

std::vector<std::unique_ptr<TransformationRule>> MakeDefaultTransformations() {
  std::vector<std::unique_ptr<TransformationRule>> rules;
  using K = LogicalOpKind;
  rules.push_back(
      std::make_unique<SelectPushBelow>(K::kMat, kRuleSelectMatCommute));
  rules.push_back(
      std::make_unique<SelectPushBelow>(K::kUnnest, kRuleSelectUnnestCommute));
  for (auto& rule : MakeJoinOrderRules()) rules.push_back(std::move(rule));
  rules.push_back(std::make_unique<SelectJoinPush>());
  return rules;
}

}  // namespace oodb
