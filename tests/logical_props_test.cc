#include <gtest/gtest.h>

#include "src/algebra/logical_props.h"
#include "src/catalog/paper_catalog.h"

namespace oodb {
namespace {

class LogicalPropsTest : public ::testing::Test {
 protected:
  LogicalPropsTest() : db_(MakePaperCatalog()) { ctx_.catalog = &db_.catalog; }

  LogicalProps Derive(const LogicalExprPtr& tree) {
    auto r = DeriveTreeProps(*tree, ctx_);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : LogicalProps{};
  }

  PaperDb db_;
  QueryContext ctx_;
};

TEST_F(LogicalPropsTest, GetCardinalityFromCatalog) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  auto get = LogicalExpr::Make(
      LogicalOp::Get(CollectionId::Set("Cities", db_.city), c));
  LogicalProps p = Derive(get);
  EXPECT_DOUBLE_EQ(p.card, 10000);
  EXPECT_DOUBLE_EQ(p.tuple_bytes, 200);
  EXPECT_EQ(p.scope, BindingSet::Of(c));
}

TEST_F(LogicalPropsTest, SelectAppliesDefaultSelectivity) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqInt(c, db_.city_population, 5)),
      {LogicalExpr::Make(LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))});
  // No index on population -> paper's naive 10%.
  EXPECT_DOUBLE_EQ(Derive(tree).card, 1000);
}

TEST_F(LogicalPropsTest, SelectUsesIndexAssistedSelectivity) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId m = ctx_.bindings.AddMat("c.mayor", db_.person, c, db_.city_mayor);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m, db_.person_name, "Joe")),
      {LogicalExpr::Make(
          LogicalOp::Mat(c, db_.city_mayor, m),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))})});
  // Path index on Cities(mayor.name): 10000 / 5000 = 2 — the paper's
  // "only 2 cities have mayors named Joe".
  EXPECT_DOUBLE_EQ(Derive(tree).card, 2);
}

TEST_F(LogicalPropsTest, MatKeepsCardAddsBytes) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId m = ctx_.bindings.AddMat("c.mayor", db_.person, c, db_.city_mayor);
  auto tree = LogicalExpr::Make(
      LogicalOp::Mat(c, db_.city_mayor, m),
      {LogicalExpr::Make(LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))});
  LogicalProps p = Derive(tree);
  EXPECT_DOUBLE_EQ(p.card, 10000);
  EXPECT_DOUBLE_EQ(p.tuple_bytes, 300);  // 200 city + 100 person
}

TEST_F(LogicalPropsTest, UnnestMultipliesByFanout) {
  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  BindingId r =
      ctx_.bindings.AddUnnest("r", db_.employee, t, db_.task_team_members);
  auto tree = LogicalExpr::Make(
      LogicalOp::Unnest(t, db_.task_team_members, r),
      {LogicalExpr::Make(LogicalOp::Get(CollectionId::Set("Tasks", db_.task), t))});
  EXPECT_DOUBLE_EQ(Derive(tree).card, 60000);  // 12000 tasks x 5 members
}

TEST_F(LogicalPropsTest, RefJoinCardMatchesMatCard) {
  // Mat e.dept over Employees and its Join rewrite agree on cardinality.
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  auto employees = LogicalExpr::Make(
      LogicalOp::Get(CollectionId::Set("Employees", db_.employee), e));
  auto mat = LogicalExpr::Make(LogicalOp::Mat(e, db_.emp_dept, d), {employees});
  auto join = LogicalExpr::Make(
      LogicalOp::Join(ScalarExpr::RefEq(e, db_.emp_dept, d)),
      {employees,
       LogicalExpr::Make(
           LogicalOp::Get(CollectionId::Extent(db_.department), d))});
  EXPECT_DOUBLE_EQ(Derive(mat).card, Derive(join).card);
  EXPECT_DOUBLE_EQ(Derive(join).card, 50000);
}

TEST_F(LogicalPropsTest, OneConjunctOneEstimateInSelectAndJoin) {
  // Query 4's conjuncts price the same whether a Select applies them above
  // a cartesian join or a join applies them, so a Select over a cartesian
  // join and the join-order rule's joins land in a group with one
  // cardinality.
  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  BindingId r =
      ctx_.bindings.AddUnnest("r", db_.employee, t, db_.task_team_members);
  BindingId e = ctx_.bindings.AddMat("e", db_.employee, r, kInvalidField);
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  auto members = LogicalExpr::Make(
      LogicalOp::Mat(r, kInvalidField, e),
      {LogicalExpr::Make(
          LogicalOp::Unnest(t, db_.task_team_members, r),
          {LogicalExpr::Make(
              LogicalOp::Get(CollectionId::Set("Tasks", db_.task), t))})});
  auto cities = LogicalExpr::Make(
      LogicalOp::Get(CollectionId::Set("Cities", db_.city), c));
  auto cartesian = LogicalExpr::Make(
      LogicalOp::Join(ScalarExpr::Const(Value::Int(1))), {members, cities});
  EXPECT_DOUBLE_EQ(Derive(cartesian).card,
                   Derive(members).card * Derive(cities).card);
  for (const ScalarExprPtr& conjunct :
       {ScalarExpr::AttrEqInt(t, db_.task_time, 100),
        ScalarExpr::AttrEqStr(e, db_.emp_name, "Fred")}) {
    SCOPED_TRACE(conjunct->ToString(ctx_.bindings, ctx_.schema()));
    auto select = LogicalExpr::Make(LogicalOp::Select(conjunct), {cartesian});
    auto join = LogicalExpr::Make(LogicalOp::Join(conjunct), {members, cities});
    auto member_select =
        LogicalExpr::Make(LogicalOp::Select(conjunct), {members});
    EXPECT_DOUBLE_EQ(Derive(select).card, Derive(join).card);
    EXPECT_DOUBLE_EQ(Derive(join).card,
                     Derive(member_select).card * Derive(cities).card);
    // The index keys, not the 10% default: 1/600 times and 1/475 names.
    EXPECT_LT(Derive(member_select).card, 0.01 * Derive(members).card);
  }
}

TEST_F(LogicalPropsTest, ProjectBytesFromEmittedFields) {
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  auto tree = LogicalExpr::Make(
      LogicalOp::Project({ScalarExpr::Attr(c, db_.city_name)}),
      {LogicalExpr::Make(LogicalOp::Get(CollectionId::Set("Cities", db_.city), c))});
  LogicalProps p = Derive(tree);
  EXPECT_DOUBLE_EQ(p.card, 10000);
  EXPECT_DOUBLE_EQ(p.tuple_bytes, 24);  // city_name avg_size
  EXPECT_EQ(p.scope, BindingSet::Of(c));
}

TEST_F(LogicalPropsTest, RangePredicateSelectivity) {
  // emp.age has [20, 70] range statistics: age >= 32 keeps 38/50.
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrCmpInt(e, db_.emp_age, CmpOp::kGe, 32)),
      {LogicalExpr::Make(
          LogicalOp::Get(CollectionId::Set("Employees", db_.employee), e))});
  EXPECT_NEAR(Derive(tree).card, 50000.0 * 38.0 / 50.0, 1.0);
}

}  // namespace
}  // namespace oodb
