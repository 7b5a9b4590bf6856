// Tests of individual transformation rules: rewrites are validated against
// the algebra's scoping rules, and targeted memo explorations assert the
// expected equivalent expressions appear.
#include <gtest/gtest.h>

#include "src/rules/transformations.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

class TransformationTest : public ::testing::Test {
 protected:
  TransformationTest() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
  }

  struct Explored {
    std::unique_ptr<Memo> memo;
    GroupId root;
  };

  /// Inserts the tree and applies every default transformation to fixpoint,
  /// honouring `disabled`.
  Explored Explore(const LogicalExprPtr& tree,
                   std::vector<std::string> disabled = {}) {
    opts_ = OptimizerOptions{};
    opts_.disabled_rules = std::move(disabled);
    cost_model_ = CostModel(opts_.cost);
    Explored out;
    out.memo = std::make_unique<Memo>(&ctx_);
    auto root = out.memo->InsertTree(*tree);
    EXPECT_TRUE(root.ok()) << root.status();
    out.root = *root;

    OptContext octx;
    octx.qctx = &ctx_;
    octx.memo = out.memo.get();
    octx.cost_model = &cost_model_;
    octx.opts = &opts_;

    auto rules = MakeDefaultTransformations();
    bool changed = true;
    while (changed) {
      changed = false;
      for (MExprId m = 0; m < static_cast<MExprId>(out.memo->num_mexprs());
           ++m) {
        for (const auto& rule : rules) {
          if (rule->root_kind() != out.memo->mexpr(m).op.kind) continue;
          if (opts_.IsDisabled(rule->name())) continue;
          std::vector<RuleExprPtr> produced;
          Status s = rule->Apply(octx, out.memo->mexpr(m), &produced);
          EXPECT_TRUE(s.ok()) << s;
          GroupId target = out.memo->Find(out.memo->mexpr(m).group);
          for (const RuleExprPtr& e : produced) {
            auto inserted = out.memo->InsertRuleExpr(e, target);
            EXPECT_TRUE(inserted.ok()) << inserted.status();
            if (inserted.ok() && *inserted != kInvalidMExpr) changed = true;
          }
        }
      }
    }
    return out;
  }

  /// Counts m-exprs of `kind` in the root group.
  int CountInRoot(const Explored& e, LogicalOpKind kind) {
    int n = 0;
    for (MExprId m : e.memo->group(e.root).mexprs) {
      if (e.memo->mexpr(m).op.kind == kind) ++n;
    }
    return n;
  }

  /// Counts m-exprs of `kind` anywhere in the memo.
  int CountAll(const Explored& e, LogicalOpKind kind) {
    int n = 0;
    for (MExprId m = 0; m < static_cast<MExprId>(e.memo->num_mexprs()); ++m) {
      if (e.memo->mexpr(m).op.kind == kind) ++n;
    }
    return n;
  }

  PaperDb db_;
  QueryContext ctx_;
  OptimizerOptions opts_;
  CostModel cost_model_{CostModelOptions{}};
};

TEST_F(TransformationTest, CanonicalConjunctionSortsAndDropsTrue) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c, db_.city_population, 1);
  ScalarExprPtr b = ScalarExpr::AttrEqInt(c, db_.city_population, 2);
  ScalarExprPtr t = ScalarExpr::Const(Value::Int(1));
  ScalarExprPtr c1 = CanonicalConjunction({a, b, t});
  ScalarExprPtr c2 = CanonicalConjunction({b, t, a});
  EXPECT_TRUE(c1->Equals(*c2));
  EXPECT_EQ(ScalarExpr::SplitConjuncts(c1).size(), 2u);
  // All-true input keeps a single true.
  ScalarExprPtr all_true = CanonicalConjunction({t});
  EXPECT_EQ(all_true->kind(), ScalarExpr::Kind::kConst);
}

TEST_F(TransformationTest, MatMatCommuteGeneratesBothOrders) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId m = ctx_.bindings.AddMat("c.mayor", db_.person, c, db_.city_mayor);
  BindingId k = ctx_.bindings.AddMat("c.country", db_.country, c, db_.city_country);
  auto tree = LogicalExpr::Make(
      LogicalOp::Mat(c, db_.city_country, k),
      {LogicalExpr::Make(
          LogicalOp::Mat(c, db_.city_mayor, m),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))})});
  Explored e = Explore(tree, {kRuleMatToJoin});
  // Root group holds Mat(country) over Mat(mayor) and the commuted order.
  EXPECT_EQ(CountInRoot(e, LogicalOpKind::kMat), 2);
}

TEST_F(TransformationTest, DependentMatsDoNotCommute) {
  // c.country must be materialized before c.country.president (paper §3).
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId k = ctx_.bindings.AddMat("c.country", db_.country, c, db_.city_country);
  BindingId p = ctx_.bindings.AddMat("c.country.president", db_.person, k,
                                     db_.country_president);
  auto tree = LogicalExpr::Make(
      LogicalOp::Mat(k, db_.country_president, p),
      {LogicalExpr::Make(
          LogicalOp::Mat(c, db_.city_country, k),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))})});
  Explored e = Explore(tree, {kRuleMatToJoin});
  EXPECT_EQ(CountInRoot(e, LogicalOpKind::kMat), 1);
}

TEST_F(TransformationTest, MatToJoinRequiresExtent) {
  BindingId e_ = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e_, db_.emp_dept);
  auto employees = LogicalExpr::Make(
      LogicalOp::Get(CollectionId::Set("Employees", db_.employee), e_));
  auto tree = LogicalExpr::Make(LogicalOp::Mat(e_, db_.emp_dept, d), {employees});
  Explored ex = Explore(tree);
  // Department has an extent: a Join alternative appears in the root group.
  EXPECT_GE(CountInRoot(ex, LogicalOpKind::kJoin), 1);

  // Plant has no extent: Mat d.plant cannot become a join.
  BindingId dd = ctx_.bindings.AddGet("d", db_.department);
  BindingId pl = ctx_.bindings.AddMat("d.plant", db_.plant, dd, db_.dept_plant);
  auto depts = LogicalExpr::Make(
      LogicalOp::Get(CollectionId::Extent(db_.department), dd));
  auto tree2 = LogicalExpr::Make(LogicalOp::Mat(dd, db_.dept_plant, pl), {depts});
  Explored ex2 = Explore(tree2);
  EXPECT_EQ(CountInRoot(ex2, LogicalOpKind::kJoin), 0);
}

TEST_F(TransformationTest, MatToJoinDisabledByName) {
  BindingId e_ = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e_, db_.emp_dept);
  auto tree = LogicalExpr::Make(
      LogicalOp::Mat(e_, db_.emp_dept, d),
      {LogicalExpr::Make(
          LogicalOp::Get(CollectionId::Set("Employees", db_.employee), e_))});
  Explored ex = Explore(tree, {kRuleMatToJoin});
  EXPECT_EQ(CountInRoot(ex, LogicalOpKind::kJoin), 0);
}

TEST_F(TransformationTest, SelectPushesBelowMat) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId m = ctx_.bindings.AddMat("c.mayor", db_.person, c, db_.city_mayor);
  // Predicate on the city only: can sink below Mat c.mayor.
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqInt(c, db_.city_population, 5)),
      {LogicalExpr::Make(
          LogicalOp::Mat(c, db_.city_mayor, m),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))})});
  Explored e = Explore(tree, {kRuleMatToJoin});
  // Root group gains a Mat alternative (Mat over the pushed Select).
  EXPECT_GE(CountInRoot(e, LogicalOpKind::kMat), 1);
  // Somewhere a Select directly over the Get exists.
  bool found = false;
  for (MExprId m2 = 0; m2 < static_cast<MExprId>(e.memo->num_mexprs()); ++m2) {
    const LogicalMExpr& me = e.memo->mexpr(m2);
    if (me.op.kind != LogicalOpKind::kSelect) continue;
    for (MExprId cm : e.memo->group(me.children[0]).mexprs) {
      if (e.memo->mexpr(cm).op.kind == LogicalOpKind::kGet) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TransformationTest, SelectOnMatTargetDoesNotPush) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId m = ctx_.bindings.AddMat("c.mayor", db_.person, c, db_.city_mayor);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m, db_.person_name, "Joe")),
      {LogicalExpr::Make(
          LogicalOp::Mat(c, db_.city_mayor, m),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))})});
  Explored e = Explore(tree, {kRuleMatToJoin});
  // The predicate reads the mat target: no Mat-over-Select alternative in
  // the root group.
  EXPECT_EQ(CountInRoot(e, LogicalOpKind::kMat), 0);
}

TEST_F(TransformationTest, SelectKeepsOneCanonicalConjunctSet) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  ScalarExprPtr p1 = ScalarExpr::AttrEqInt(c, db_.city_population, 1);
  ScalarExprPtr p2 = ScalarExpr::AttrEqInt(c, db_.city_population, 2);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::And({p2, p1, p2})),
      {LogicalExpr::Make(
          LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))});
  Explored e = Explore(tree);
  // One Select, whose predicate is the canonical conjunction of the
  // distinct conjuncts: no stacked single-conjunct Selects.
  EXPECT_EQ(CountAll(e, LogicalOpKind::kSelect), 1);
  const LogicalMExpr& sel = e.memo->mexpr(e.memo->group(e.root).mexprs[0]);
  EXPECT_TRUE(ExprPtrEquals(sel.op.pred, CanonicalConjunction({p1, p2})));
}

TEST_F(TransformationTest, SelectMatCommutePartitionsConjuncts) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId m = ctx_.bindings.AddMat("m", db_.person, c, db_.city_mayor);
  ScalarExprPtr on_mayor = ScalarExpr::AttrEqStr(m, db_.person_name, "Joe");
  ScalarExprPtr on_city = ScalarExpr::AttrEqInt(c, db_.city_population, 1);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::And({on_mayor, on_city})),
      {LogicalExpr::Make(
          LogicalOp::Mat(c, db_.city_mayor, m),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))})});
  Explored e = Explore(tree, {kRuleMatToJoin});
  // The conjunct on the Mat target stays above the Mat; the other goes
  // below it: Select_mayor(Mat(Select_city(Get))).
  bool partitioned = false;
  for (MExprId id : e.memo->group(e.root).mexprs) {
    const LogicalMExpr& top = e.memo->mexpr(id);
    if (top.op.kind != LogicalOpKind::kSelect ||
        !ExprPtrEquals(top.op.pred, on_mayor)) {
      continue;
    }
    for (MExprId mid : e.memo->group(top.children[0]).mexprs) {
      const LogicalMExpr& mat = e.memo->mexpr(mid);
      if (mat.op.kind != LogicalOpKind::kMat) continue;
      for (MExprId bid : e.memo->group(mat.children[0]).mexprs) {
        const LogicalMExpr& below = e.memo->mexpr(bid);
        partitioned = partitioned ||
                      (below.op.kind == LogicalOpKind::kSelect &&
                       ExprPtrEquals(below.op.pred, on_city));
      }
    }
  }
  EXPECT_TRUE(partitioned) << e.memo->ToString();
}

TEST_F(TransformationTest, SelectJoinPushKeepsOneSideAboveTheJoin) {
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddGet("d", db_.department);
  ScalarExprPtr on_e = ScalarExpr::AttrCmpInt(e, db_.emp_age, CmpOp::kGe, 32);
  ScalarExprPtr on_d = ScalarExpr::AttrEqInt(d, db_.dept_floor, 3);
  ScalarExprPtr cross = ScalarExpr::RefEq(e, db_.emp_dept, d);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::And({on_e, on_d, cross})),
      {LogicalExpr::Make(
          LogicalOp::Join(ScalarExpr::Const(Value::Int(1))),
          {LogicalExpr::Make(
               LogicalOp::Get(CollectionId::Set("Employees", db_.employee), e)),
           LogicalExpr::Make(
               LogicalOp::Get(CollectionId::Extent(db_.department), d))})});
  Explored x = Explore(tree, {kRuleJoinCommute});
  // Besides pushing both sides' conjuncts, the rule pushes one side's only
  // and keeps the other's above a join on the cross conjunct:
  // Select_{on_d}(Join_{cross}(Select_{on_e}(e), d)) and its mirror.
  int kept_above = 0;
  for (MExprId id : x.memo->group(x.root).mexprs) {
    const LogicalMExpr& top = x.memo->mexpr(id);
    if (top.op.kind != LogicalOpKind::kSelect) continue;
    if (!ExprPtrEquals(top.op.pred, on_d) &&
        !ExprPtrEquals(top.op.pred, on_e)) {
      continue;
    }
    for (MExprId jid : x.memo->group(top.children[0]).mexprs) {
      const LogicalMExpr& join = x.memo->mexpr(jid);
      if (join.op.kind == LogicalOpKind::kJoin &&
          ExprPtrEquals(join.op.pred, cross)) {
        ++kept_above;
        break;
      }
    }
  }
  EXPECT_EQ(kept_above, 2) << x.memo->ToString();
  // Select rules only push conjuncts down and the join-order rule's joins
  // take only conjuncts that read both inputs, so no join predicate holds
  // a single-side conjunct.
  for (MExprId id = 0; id < static_cast<MExprId>(x.memo->num_mexprs()); ++id) {
    const LogicalMExpr& m = x.memo->mexpr(id);
    if (m.op.kind != LogicalOpKind::kJoin) continue;
    for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(m.op.pred)) {
      EXPECT_FALSE(ExprPtrEquals(c, on_e) || ExprPtrEquals(c, on_d))
          << x.memo->ToString();
    }
  }
}

TEST_F(TransformationTest, JoinCommutativityDoublesJoinExprs) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId n = ctx_.bindings.AddGet("n", db_.country);
  auto tree = LogicalExpr::Make(
      LogicalOp::Join(ScalarExpr::RefEq(c, db_.city_country, n)),
      {LogicalExpr::Make(LogicalOp::Get(CollectionId::Set("Cities", db_.city), c)),
       LogicalExpr::Make(LogicalOp::Get(CollectionId::Extent(db_.country), n))});
  Explored with = Explore(tree);
  EXPECT_EQ(CountInRoot(with, LogicalOpKind::kJoin), 2);
  Explored without = Explore(tree, {kRuleJoinCommute});
  EXPECT_EQ(CountInRoot(without, LogicalOpKind::kJoin), 1);
}

TEST_F(TransformationTest, JoinOrderReordersThreeWay) {
  BindingId a = ctx_.bindings.AddGet("a", db_.employee);
  BindingId b = ctx_.bindings.AddGet("b", db_.department);
  BindingId c = ctx_.bindings.AddGet("c", db_.job);
  auto ga = LogicalExpr::Make(
      LogicalOp::Get(CollectionId::Set("Employees", db_.employee), a));
  auto gb = LogicalExpr::Make(LogicalOp::Get(CollectionId::Extent(db_.department), b));
  auto gc = LogicalExpr::Make(LogicalOp::Get(CollectionId::Extent(db_.job), c));
  auto inner = LogicalExpr::Make(
      LogicalOp::Join(ScalarExpr::RefEq(a, db_.emp_dept, b)), {ga, gb});
  auto tree = LogicalExpr::Make(
      LogicalOp::Join(ScalarExpr::RefEq(a, db_.emp_job, c)), {inner, gc});
  Explored e = Explore(tree);
  // All join orders explored.
  EXPECT_GE(CountInRoot(e, LogicalOpKind::kJoin), 3);
  Explored without = Explore(tree, {kRuleJoinOrder, kRuleJoinCommute});
  EXPECT_EQ(CountInRoot(without, LogicalOpKind::kJoin), 1);
}

TEST_F(TransformationTest, SelectUnnestCommute) {
  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  BindingId r = ctx_.bindings.AddUnnest("r", db_.employee, t, db_.task_team_members);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqInt(t, db_.task_time, 100)),
      {LogicalExpr::Make(
          LogicalOp::Unnest(t, db_.task_team_members, r),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Tasks", db_.task), t))})});
  Explored e = Explore(tree);
  // The select sinks below the unnest: an Unnest m-expr appears in the root.
  EXPECT_GE(CountInRoot(e, LogicalOpKind::kUnnest), 1);
}

TEST_F(TransformationTest, AllRewritesValidate) {
  // Property: every expression generated during exploration of Query 1
  // satisfies the algebra's scoping invariants.
  QueryContext qctx;
  qctx.catalog = &db_.catalog;
  auto logical = BuildPaperQuery(1, db_, &qctx);
  ASSERT_TRUE(logical.ok());
  ctx_ = std::move(qctx);
  Explored e = Explore(*logical);
  for (MExprId m = 0; m < static_cast<MExprId>(e.memo->num_mexprs()); ++m) {
    const LogicalMExpr& me = e.memo->mexpr(m);
    std::vector<BindingSet> child_scopes;
    for (GroupId g : me.children) {
      child_scopes.push_back(e.memo->group(g).props.scope);
    }
    Status s = me.op.Validate(ctx_, child_scopes);
    EXPECT_TRUE(s.ok()) << me.op.ToString(ctx_) << ": " << s;
  }
}

TEST_F(TransformationTest, ExplorationTerminates) {
  QueryContext qctx;
  qctx.catalog = &db_.catalog;
  auto logical = BuildPaperQuery(4, db_, &qctx);
  ASSERT_TRUE(logical.ok());
  ctx_ = std::move(qctx);
  Explored e = Explore(*logical);
  EXPECT_LT(e.memo->num_mexprs(), 4000);
  EXPECT_GT(e.memo->num_mexprs(), 5);
}

}  // namespace
}  // namespace oodb
