#include <gtest/gtest.h>

#include "src/algebra/logical_op.h"
#include "src/catalog/paper_catalog.h"

namespace oodb {
namespace {

class LogicalOpTest : public ::testing::Test {
 protected:
  LogicalOpTest() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
    c_ = ctx_.bindings.AddGet("c", db_.city);
    m_ = ctx_.bindings.AddMat("c.mayor", db_.person, c_, db_.city_mayor);
    n_ = ctx_.bindings.AddGet("n", db_.country);
  }

  LogicalExprPtr GetCities() {
    return LogicalExpr::Make(
        LogicalOp::Get(CollectionId::Set("Cities", db_.city), c_));
  }

  PaperDb db_;
  QueryContext ctx_;
  BindingId c_, m_, n_;
};

TEST_F(LogicalOpTest, Arity) {
  EXPECT_EQ(LogicalOp::Get(CollectionId::Set("Cities", db_.city), c_).Arity(), 0);
  EXPECT_EQ(LogicalOp::Select(ScalarExpr::Self(c_)).Arity(), 1);
  EXPECT_EQ(LogicalOp::Mat(c_, db_.city_mayor, m_).Arity(), 1);
  EXPECT_EQ(LogicalOp::Join(ScalarExpr::Self(c_)).Arity(), 2);
}

TEST_F(LogicalOpTest, EqualityAndHash) {
  LogicalOp a = LogicalOp::Mat(c_, db_.city_mayor, m_);
  LogicalOp b = LogicalOp::Mat(c_, db_.city_mayor, m_);
  LogicalOp d = LogicalOp::Mat(c_, db_.city_country, m_);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == d);
  EXPECT_EQ(a.Hash(), b.Hash());

  LogicalOp s1 = LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe"));
  LogicalOp s2 = LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe"));
  EXPECT_TRUE(s1 == s2);
  EXPECT_EQ(s1.Hash(), s2.Hash());
}

TEST_F(LogicalOpTest, GetValidatesCollectionAndType) {
  LogicalOp get = LogicalOp::Get(CollectionId::Set("Cities", db_.city), c_);
  EXPECT_TRUE(get.Validate(ctx_, {}).ok());

  LogicalOp wrong_type =
      LogicalOp::Get(CollectionId::Set("Cities", db_.city), n_);
  EXPECT_FALSE(wrong_type.Validate(ctx_, {}).ok());

  LogicalOp missing = LogicalOp::Get(CollectionId::Set("Nope", db_.city), c_);
  EXPECT_FALSE(missing.Validate(ctx_, {}).ok());
}

TEST_F(LogicalOpTest, GetAllowsSubtypeCollections) {
  // Capitals is a set of Capital (subtype of City); binding declared as City.
  BindingId k = ctx_.bindings.AddGet("k", db_.city);
  LogicalOp get = LogicalOp::Get(CollectionId::Set("Capitals", db_.capital), k);
  EXPECT_TRUE(get.Validate(ctx_, {}).ok());
}

TEST_F(LogicalOpTest, SelectRequiresScope) {
  LogicalOp sel =
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe"));
  BindingSet with_m = BindingSet::Of(c_);
  with_m.Add(m_);
  EXPECT_TRUE(sel.Validate(ctx_, {with_m}).ok());
  EXPECT_FALSE(sel.Validate(ctx_, {BindingSet::Of(c_)}).ok());
}

TEST_F(LogicalOpTest, MatValidation) {
  LogicalOp mat = LogicalOp::Mat(c_, db_.city_mayor, m_);
  EXPECT_TRUE(mat.Validate(ctx_, {BindingSet::Of(c_)}).ok());
  // Source missing from scope.
  EXPECT_FALSE(mat.Validate(ctx_, {BindingSet::Of(n_)}).ok());
  // Target already in scope.
  BindingSet both = BindingSet::Of(c_);
  both.Add(m_);
  EXPECT_FALSE(mat.Validate(ctx_, {both}).ok());
  // Field is not a reference.
  LogicalOp bad = LogicalOp::Mat(c_, db_.city_name, m_);
  EXPECT_FALSE(bad.Validate(ctx_, {BindingSet::Of(c_)}).ok());
}

TEST_F(LogicalOpTest, MatRefRequiresRefBinding) {
  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  BindingId r =
      ctx_.bindings.AddUnnest("r", db_.employee, t, db_.task_team_members);
  BindingId e = ctx_.bindings.AddMat("e", db_.employee, r, kInvalidField);
  LogicalOp mat = LogicalOp::MatRef(r, e);
  BindingSet scope = BindingSet::Of(t);
  scope.Add(r);
  EXPECT_TRUE(mat.Validate(ctx_, {scope}).ok());
  // Materializing a non-ref binding without a field is invalid.
  LogicalOp bad = LogicalOp::MatRef(c_, e);
  EXPECT_FALSE(bad.Validate(ctx_, {BindingSet::Of(c_)}).ok());
}

TEST_F(LogicalOpTest, UnnestValidation) {
  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  BindingId r =
      ctx_.bindings.AddUnnest("r", db_.employee, t, db_.task_team_members);
  LogicalOp unnest = LogicalOp::Unnest(t, db_.task_team_members, r);
  EXPECT_TRUE(unnest.Validate(ctx_, {BindingSet::Of(t)}).ok());
  // Field is not set-valued.
  LogicalOp bad = LogicalOp::Unnest(t, db_.task_time, r);
  EXPECT_FALSE(bad.Validate(ctx_, {BindingSet::Of(t)}).ok());
}

TEST_F(LogicalOpTest, JoinScopesMustBeDisjoint) {
  LogicalOp join = LogicalOp::Join(ScalarExpr::RefEq(c_, db_.city_country, n_));
  EXPECT_TRUE(join.Validate(ctx_, {BindingSet::Of(c_), BindingSet::Of(n_)}).ok());
  EXPECT_FALSE(join.Validate(ctx_, {BindingSet::Of(c_), BindingSet::Of(c_)}).ok());
}

TEST_F(LogicalOpTest, OutputBindings) {
  LogicalOp get = LogicalOp::Get(CollectionId::Set("Cities", db_.city), c_);
  EXPECT_EQ(get.OutputBindings({}), BindingSet::Of(c_));

  LogicalOp mat = LogicalOp::Mat(c_, db_.city_mayor, m_);
  BindingSet out = mat.OutputBindings({BindingSet::Of(c_)});
  EXPECT_TRUE(out.Contains(c_));
  EXPECT_TRUE(out.Contains(m_));

  LogicalOp proj = LogicalOp::Project({ScalarExpr::Attr(m_, db_.person_age)});
  EXPECT_EQ(proj.OutputBindings({out}), BindingSet::Of(m_));

  LogicalOp join = LogicalOp::Join(ScalarExpr::Const(Value::Int(1)));
  EXPECT_EQ(join.OutputBindings({BindingSet::Of(c_), BindingSet::Of(n_)}).Count(),
            2);
}

TEST_F(LogicalOpTest, TreeScopeAndValidation) {
  LogicalExprPtr tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      {LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_),
                         {GetCities()})});
  auto scope = ValidateLogicalTree(*tree, ctx_);
  ASSERT_TRUE(scope.ok());
  EXPECT_TRUE(scope->Contains(c_));
  EXPECT_TRUE(scope->Contains(m_));
  EXPECT_EQ(tree->Scope(), *scope);
}

TEST_F(LogicalOpTest, InvalidTreeRejected) {
  // Select references the mayor before it is materialized.
  LogicalExprPtr tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      {GetCities()});
  EXPECT_FALSE(ValidateLogicalTree(*tree, ctx_).ok());
}

TEST_F(LogicalOpTest, PrintMatchesPaperStyle) {
  LogicalExprPtr tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      {LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_),
                         {GetCities()})});
  std::string printed = PrintLogicalTree(*tree, ctx_);
  EXPECT_NE(printed.find("Select c.mayor.name == \"Joe\""), std::string::npos);
  EXPECT_NE(printed.find("Mat c.mayor"), std::string::npos);
  EXPECT_NE(printed.find("Get Cities: c"), std::string::npos);
}

TEST_F(LogicalOpTest, KindNames) {
  EXPECT_STREQ(LogicalOpKindName(LogicalOpKind::kGet), "Get");
  EXPECT_STREQ(LogicalOpKindName(LogicalOpKind::kMat), "Mat");
  EXPECT_STREQ(LogicalOpKindName(LogicalOpKind::kUnnest), "Unnest");
}

TEST_F(LogicalOpTest, WrongArityRejected) {
  LogicalOp sel = LogicalOp::Select(ScalarExpr::Self(c_));
  EXPECT_FALSE(sel.Validate(ctx_, {}).ok());
  EXPECT_FALSE(
      sel.Validate(ctx_, {BindingSet::Of(c_), BindingSet::Of(n_)}).ok());
}

}  // namespace
}  // namespace oodb
