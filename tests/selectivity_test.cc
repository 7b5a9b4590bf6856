#include <gtest/gtest.h>

#include "src/catalog/paper_catalog.h"
#include "src/cost/selectivity.h"
#include "src/trace/card_feedback.h"

namespace oodb {
namespace {

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
    c_ = ctx_.bindings.AddGet("c", db_.city);
    m_ = ctx_.bindings.AddMat("c.mayor", db_.person, c_, db_.city_mayor);
    t_ = ctx_.bindings.AddGet("t", db_.task);
  }
  PaperDb db_;
  QueryContext ctx_;
  BindingId c_, m_, t_;
};

TEST_F(SelectivityTest, DefaultTenPercentWithoutIndex) {
  SelectivityEstimator sel(&ctx_);
  // No index assists city population equality.
  EXPECT_DOUBLE_EQ(
      sel.Estimate(ScalarExpr::AttrEqInt(c_, db_.city_population, 5)), 0.10);
}

TEST_F(SelectivityTest, IndexAssistedEquality) {
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(sel.Estimate(ScalarExpr::AttrEqInt(t_, db_.task_time, 100)),
                   1.0 / 600.0);
}

TEST_F(SelectivityTest, PathIndexAssistsViaMatChain) {
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(
      sel.Estimate(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      1.0 / 5000.0);
}

TEST_F(SelectivityTest, DisabledIndexFallsBackToDefault) {
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxCitiesMayorName, false).ok());
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(
      sel.Estimate(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")), 0.10);
}

TEST_F(SelectivityTest, RangeUsesMinMaxStats) {
  // task.time has [1, 600] range statistics: interpolate.
  SelectivityEstimator sel(&ctx_);
  EXPECT_NEAR(
      sel.Estimate(ScalarExpr::AttrCmpInt(t_, db_.task_time, CmpOp::kLt, 50)),
      49.0 / 599.0, 1e-9);
  EXPECT_NEAR(
      sel.Estimate(ScalarExpr::AttrCmpInt(t_, db_.task_time, CmpOp::kGe, 540)),
      1.0 - 539.0 / 599.0, 1e-9);
  // Out-of-range constants clamp (floor 0.001 keeps estimates non-zero).
  EXPECT_NEAR(
      sel.Estimate(ScalarExpr::AttrCmpInt(t_, db_.task_time, CmpOp::kLt, -5)),
      0.001, 1e-9);
}

TEST_F(SelectivityTest, RangeWithoutStatsIsOneThird) {
  // salary is a double field with no [min, max] statistics.
  SelectivityEstimator sel(&ctx_);
  BindingId e = ctx_.bindings.AddGet("e2", db_.employee);
  ScalarExprPtr pred = ScalarExpr::Cmp(
      CmpOp::kGe, ScalarExpr::Attr(e, db_.emp_salary),
      ScalarExpr::Const(Value::Double(50000.0)));
  EXPECT_DOUBLE_EQ(sel.Estimate(pred), 1.0 / 3.0);
}

TEST_F(SelectivityTest, NotEqual) {
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(
      sel.Estimate(ScalarExpr::AttrCmpInt(t_, db_.task_time, CmpOp::kNe, 50)),
      0.9);
}

TEST_F(SelectivityTest, ConjunctionMultiplies) {
  SelectivityEstimator sel(&ctx_);
  ScalarExprPtr e = ScalarExpr::And(
      {ScalarExpr::AttrEqInt(c_, db_.city_population, 5),
       ScalarExpr::AttrEqInt(c_, db_.city_population, 6)});
  EXPECT_NEAR(sel.Estimate(e), 0.01, 1e-12);
}

TEST_F(SelectivityTest, DisjunctionInclusionExclusion) {
  SelectivityEstimator sel(&ctx_);
  ScalarExprPtr e = ScalarExpr::Or(
      {ScalarExpr::AttrEqInt(c_, db_.city_population, 5),
       ScalarExpr::AttrEqInt(c_, db_.city_population, 6)});
  EXPECT_NEAR(sel.Estimate(e), 0.19, 1e-12);
}

TEST_F(SelectivityTest, NotComplement) {
  SelectivityEstimator sel(&ctx_);
  ScalarExprPtr e =
      ScalarExpr::Not(ScalarExpr::AttrEqInt(c_, db_.city_population, 5));
  EXPECT_NEAR(sel.Estimate(e), 0.9, 1e-12);
}

TEST_F(SelectivityTest, NullPredicateIsOne) {
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(sel.Estimate(nullptr), 1.0);
}

TEST_F(SelectivityTest, RefJoinSelectivityUsesPopulation) {
  SelectivityEstimator sel(&ctx_);
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  ScalarExprPtr pred = ScalarExpr::RefEq(e, db_.emp_dept, d);
  // Department extent has 1000 objects.
  EXPECT_DOUBLE_EQ(sel.Estimate(pred), 1.0 / 1000.0);
}

TEST_F(SelectivityTest, ValueJoinSelectivityUsesDistinct) {
  SelectivityEstimator sel(&ctx_);
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId p = ctx_.bindings.AddGet("p", db_.person);
  ScalarExprPtr pred =
      ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(e, db_.emp_name),
                      ScalarExpr::Attr(p, db_.person_name));
  // 1 / max(distinct(emp.name)=475, distinct(person.name)=5000).
  EXPECT_DOUBLE_EQ(sel.Estimate(pred), 1.0 / 5000.0);
}

TEST_F(SelectivityTest, ConstantTrueKeepsEverythingAndFalseNothing) {
  // The constant-true predicate of a cartesian FROM keeps the whole cross
  // product; it is not a 10% filter.
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(sel.Estimate(ScalarExpr::Const(Value::Int(1))), 1.0);
  EXPECT_DOUBLE_EQ(sel.Estimate(ScalarExpr::Const(Value::Int(0))), 0.0);
  ScalarExprPtr task = ScalarExpr::AttrEqInt(t_, db_.task_time, 100);
  EXPECT_DOUBLE_EQ(
      sel.Estimate(ScalarExpr::And({ScalarExpr::Const(Value::Int(1)), task})),
      sel.Estimate(task));
}

TEST_F(SelectivityTest, FeedbackNeverOverridesExactConjuncts) {
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  ScalarExprPtr ref = ScalarExpr::RefEq(e, db_.emp_dept, d);
  ScalarExprPtr truth = ScalarExpr::Const(Value::Int(1));
  CardFeedback fb;
  fb.RecordSelectivity(ref->Hash(), 0.5);
  fb.RecordSelectivity(truth->Hash(), 0.5);
  // The population is the measured extent when one was scanned.
  fb.RecordScanCard(CollectionId::Extent(db_.department), 400);
  ctx_.feedback = &fb;
  SelectivityEstimator sel(&ctx_);
  EXPECT_DOUBLE_EQ(sel.Estimate(ref), 1.0 / 400.0);
  EXPECT_DOUBLE_EQ(sel.Estimate(truth), 1.0);
  EXPECT_TRUE(SelectivityEstimator::IsExact(ref));
  EXPECT_FALSE(
      SelectivityEstimator::IsExact(ScalarExpr::AttrEqInt(t_, db_.task_time, 1)));
}

TEST_F(SelectivityTest, FindAssistingIndexExtentOnlyForMatRef) {
  // A Mat from a bare reference resolves against the type's population:
  // only the extent index on Employee.name applies.
  BindingId r =
      ctx_.bindings.AddUnnest("r", db_.employee, t_, db_.task_team_members);
  BindingId e = ctx_.bindings.AddMat("e", db_.employee, r, kInvalidField);
  SelectivityEstimator sel(&ctx_);
  const IndexInfo* idx = sel.FindAssistingIndex(e, db_.emp_name);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->name, kIdxEmployeesName);
  EXPECT_EQ(idx->collection.kind, CollectionId::Kind::kExtent);
}

TEST_F(SelectivityTest, FindAssistingIndexNoneForUnindexedField) {
  SelectivityEstimator sel(&ctx_);
  EXPECT_EQ(sel.FindAssistingIndex(c_, db_.city_population), nullptr);
  EXPECT_EQ(sel.FindAssistingIndex(c_, kInvalidField), nullptr);
}

}  // namespace
}  // namespace oodb
