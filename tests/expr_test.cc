#include <gtest/gtest.h>

#include "src/algebra/expr.h"
#include "src/algebra/logical_op.h"
#include "src/catalog/paper_catalog.h"

namespace oodb {
namespace {

TEST(ValueTest, Kinds) {
  EXPECT_EQ(Value::Null().kind, Value::Kind::kNull);
  EXPECT_EQ(Value::Int(3).i, 3);
  EXPECT_EQ(Value::Double(2.5).d, 2.5);
  EXPECT_EQ(Value::Str("x").s, "x");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_FALSE(Value::Int(3) == Value::Int(4));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_FALSE(Value::Str("a") == Value::Int(3));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, IntDoubleCrossEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_FALSE(Value::Int(3) == Value::Double(3.5));
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Double(1.5).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("Joe").ToString(), "\"Joe\"");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

TEST(ValueTest, KeyStringExactness) {
  // Display rounds; the hash key must not.
  EXPECT_NE(Value::Double(1.25).KeyString(),
            Value::Double(1.2500001).KeyString());
  // Numerically equal int/double key identically (operator== semantics).
  EXPECT_EQ(Value::Int(3).KeyString(), Value::Double(3.0).KeyString());
  // Kind tags prevent cross-kind collisions.
  EXPECT_NE(Value::Str("3").KeyString(), Value::Int(3).KeyString());
  EXPECT_NE(Value::Null().KeyString(), Value::Str("n").KeyString());
}

TEST(ValueTest, HashDistinguishes) {
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
  EXPECT_EQ(Value::Str("a").Hash(), Value::Str("a").Hash());
}

TEST(ValueTest, NumericallyEqualIntAndDoubleHashAlike) {
  // operator== says Int(3) == Double(3.0), so their hashes must agree.
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Int(-7).Hash(), Value::Double(-7.0).Hash());
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
  // Past 2^53 a double no longer tells neighbouring ints apart, and
  // operator== rounds the int; the hash must round the same way.
  const int64_t big = (int64_t{1} << 53) + 1;
  ASSERT_EQ(Value::Int(big), Value::Double(static_cast<double>(big)));
  EXPECT_EQ(Value::Int(big).Hash(),
            Value::Double(static_cast<double>(big)).Hash());
  EXPECT_NE(Value::Double(3.5).Hash(), Value::Int(3).Hash());
}

TEST(CmpOpTest, Names) {
  EXPECT_STREQ(CmpOpName(CmpOp::kEq), "==");
  EXPECT_STREQ(CmpOpName(CmpOp::kLe), "<=");
}

TEST(CmpOpTest, Reverse) {
  EXPECT_EQ(ReverseCmp(CmpOp::kLt), CmpOp::kGt);
  EXPECT_EQ(ReverseCmp(CmpOp::kGe), CmpOp::kLe);
  EXPECT_EQ(ReverseCmp(CmpOp::kEq), CmpOp::kEq);
  EXPECT_EQ(ReverseCmp(CmpOp::kNe), CmpOp::kNe);
}

TEST(CmpOpTest, EvalCmpThreeWay) {
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, -1));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, 0));
  EXPECT_TRUE(EvalCmp(CmpOp::kLe, 0));
  EXPECT_TRUE(EvalCmp(CmpOp::kGe, 1));
  EXPECT_TRUE(EvalCmp(CmpOp::kNe, 1));
  EXPECT_FALSE(EvalCmp(CmpOp::kEq, -1));
}

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
    c_ = ctx_.bindings.AddGet("c", db_.city);
    m_ = ctx_.bindings.AddMat("c.mayor", db_.person, c_, db_.city_mayor);
  }
  PaperDb db_;
  QueryContext ctx_;
  BindingId c_, m_;
};

TEST_F(ExprTest, ReferencedBindings) {
  ScalarExprPtr e = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
  BindingSet refs = e->ReferencedBindings();
  EXPECT_TRUE(refs.Contains(m_));
  EXPECT_FALSE(refs.Contains(c_));

  ScalarExprPtr both = ScalarExpr::And(
      {e, ScalarExpr::AttrCmpInt(c_, db_.city_population, CmpOp::kGt, 100)});
  EXPECT_EQ(both->ReferencedBindings().Count(), 2);
}

TEST_F(ExprTest, StructuralEquality) {
  ScalarExprPtr a = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
  ScalarExprPtr b = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
  ScalarExprPtr c = ScalarExpr::AttrEqStr(m_, db_.person_name, "Ann");
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_EQ(a->Hash(), b->Hash());
}

TEST_F(ExprTest, IntAndDoubleLiteralPredicatesHashAlike) {
  // `c.population == 3` and `c.population == 3.0` are Equals(); the memo
  // index and CanonicalConjunction's hash sort need their hashes equal too.
  auto pred = [&](Value v) {
    return ScalarExpr::Cmp(CmpOp::kEq,
                           ScalarExpr::Attr(c_, db_.city_population),
                           ScalarExpr::Const(std::move(v)));
  };
  ScalarExprPtr as_int = pred(Value::Int(3));
  ScalarExprPtr as_double = pred(Value::Double(3.0));
  ASSERT_TRUE(as_int->Equals(*as_double));
  EXPECT_EQ(as_int->Hash(), as_double->Hash());
}

TEST_F(ExprTest, SelfVsAttrDiffer) {
  ScalarExprPtr self = ScalarExpr::Self(c_);
  ScalarExprPtr attr = ScalarExpr::Attr(c_, db_.city_name);
  EXPECT_FALSE(self->Equals(*attr));
}

TEST_F(ExprTest, ToStringReadable) {
  ScalarExprPtr e = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
  EXPECT_EQ(e->ToString(ctx_.bindings, ctx_.schema()),
            "c.mayor.name == \"Joe\"");
  ScalarExprPtr r = ScalarExpr::RefEq(c_, db_.city_mayor, m_);
  EXPECT_EQ(r->ToString(ctx_.bindings, ctx_.schema()),
            "c.mayor == c.mayor.self");
}

TEST_F(ExprTest, AndOrNotToString) {
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c_, db_.city_population, 5);
  ScalarExprPtr b = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
  EXPECT_NE(ScalarExpr::And({a, b})->ToString(ctx_.bindings, ctx_.schema())
                .find(" and "),
            std::string::npos);
  EXPECT_NE(ScalarExpr::Or({a, b})->ToString(ctx_.bindings, ctx_.schema())
                .find(" or "),
            std::string::npos);
  EXPECT_NE(ScalarExpr::Not(a)->ToString(ctx_.bindings, ctx_.schema())
                .find("not ("),
            std::string::npos);
}

TEST_F(ExprTest, AndOfOneUnwraps) {
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c_, db_.city_population, 5);
  EXPECT_EQ(ScalarExpr::And({a}), a);
  EXPECT_EQ(ScalarExpr::Or({a}), a);
}

TEST_F(ExprTest, SplitConjunctsFlattensNestedAnds) {
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c_, db_.city_population, 1);
  ScalarExprPtr b = ScalarExpr::AttrEqInt(c_, db_.city_population, 2);
  ScalarExprPtr d = ScalarExpr::AttrEqInt(c_, db_.city_population, 3);
  ScalarExprPtr nested = ScalarExpr::And({ScalarExpr::And({a, b}), d});
  std::vector<ScalarExprPtr> parts = ScalarExpr::SplitConjuncts(nested);
  EXPECT_EQ(parts.size(), 3u);
}

TEST_F(ExprTest, SplitConjunctsKeepsOrWhole) {
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c_, db_.city_population, 1);
  ScalarExprPtr b = ScalarExpr::AttrEqInt(c_, db_.city_population, 2);
  ScalarExprPtr disj = ScalarExpr::Or({a, b});
  EXPECT_EQ(ScalarExpr::SplitConjuncts(disj).size(), 1u);
}

TEST_F(ExprTest, SplitConjunctsOfNull) {
  EXPECT_TRUE(ScalarExpr::SplitConjuncts(nullptr).empty());
}

TEST_F(ExprTest, CombineConjunctsRoundTrip) {
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c_, db_.city_population, 1);
  ScalarExprPtr b = ScalarExpr::AttrEqInt(c_, db_.city_population, 2);
  ScalarExprPtr combined = ScalarExpr::CombineConjuncts({a, b});
  EXPECT_EQ(ScalarExpr::SplitConjuncts(combined).size(), 2u);
  ScalarExprPtr single = ScalarExpr::CombineConjuncts({a});
  EXPECT_EQ(single, a);
}

TEST_F(ExprTest, ExprPtrHelpers) {
  ScalarExprPtr a = ScalarExpr::AttrEqInt(c_, db_.city_population, 1);
  ScalarExprPtr b = ScalarExpr::AttrEqInt(c_, db_.city_population, 1);
  EXPECT_TRUE(ExprPtrEquals(a, b));
  EXPECT_TRUE(ExprPtrEquals(nullptr, nullptr));
  EXPECT_FALSE(ExprPtrEquals(a, nullptr));
  EXPECT_EQ(HashExprPtr(a), HashExprPtr(b));
}

TEST_F(ExprTest, CmpChildrenOrderMatters) {
  ScalarExprPtr lt = ScalarExpr::Cmp(CmpOp::kLt, ScalarExpr::Const(Value::Int(1)),
                                     ScalarExpr::Const(Value::Int(2)));
  ScalarExprPtr gt = ScalarExpr::Cmp(CmpOp::kLt, ScalarExpr::Const(Value::Int(2)),
                                     ScalarExpr::Const(Value::Int(1)));
  EXPECT_FALSE(lt->Equals(*gt));
}

}  // namespace
}  // namespace oodb
