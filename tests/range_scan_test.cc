// Range-predicate index scans and range selectivity: an index can answer
// <, <=, >, >= key comparisons, and the optimizer chooses the scan only
// when the range is narrow enough to beat a sequential scan.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace oodb {
namespace {

using testing::PlanContains;

class RangeScanTest : public ::testing::Test {
 protected:
  RangeScanTest() : db_(MakePaperCatalog()) {}

  OptimizedQuery Optimize(const std::string& text, QueryContext* ctx) {
    ctx->catalog = &db_.catalog;
    auto logical = ParseAndSimplify(text, ctx);
    EXPECT_TRUE(logical.ok()) << logical.status();
    Optimizer opt(&db_.catalog);
    auto r = opt.Optimize(**logical, ctx);
    EXPECT_TRUE(r.ok()) << r.status();
    return *std::move(r);
  }

  PaperDb db_;
};

TEST_F(RangeScanTest, NarrowRangeUsesIndexScan) {
  // time >= 595 keeps ~0.8% of tasks: an unclustered index scan beats the
  // 300-page sequential scan.
  QueryContext ctx;
  OptimizedQuery q = Optimize(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 595;", &ctx);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kIndexScan), 1);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "t.time >= 595"));
}

TEST_F(RangeScanTest, WideRangePrefersFileScan) {
  // time >= 100 keeps ~83% of tasks: fetching them through an unclustered
  // index would cost thousands of random reads.
  QueryContext ctx;
  OptimizedQuery q = Optimize(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 100;", &ctx);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kIndexScan), 0);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kFileScan), 1);
}

TEST_F(RangeScanTest, EqualityPreferredOverRangeForTheKey) {
  QueryContext ctx;
  OptimizedQuery q = Optimize(
      "SELECT t.name FROM Task t IN Tasks "
      "WHERE t.time == 100 && t.time >= 50;",
      &ctx);
  ASSERT_EQ(CountOps(*q.plan, PhysOpKind::kIndexScan), 1);
  // The index answers the equality; the range becomes a residual.
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "t.time == 100"));
}

TEST_F(RangeScanTest, RangeCostBetweenEqualityAndScan) {
  QueryContext c1, c2, c3;
  OptimizedQuery eq = Optimize(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 595;", &c1);
  OptimizedQuery range = Optimize(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 595;", &c2);
  OptimizedQuery wide = Optimize(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 2;", &c3);
  EXPECT_LT(eq.cost.total(), range.cost.total());
  EXPECT_LT(range.cost.total(), wide.cost.total());
}

TEST_F(RangeScanTest, ExecutionMatchesBruteForce) {
  PaperDb db = MakePaperCatalog(0.2);
  ObjectStore store(&db.catalog);
  GenOptions gen;
  gen.num_plants = 20;
  ASSERT_TRUE(GeneratePaperData(db, &store, gen).ok());

  // At scale 0.2 tasks have times 1..120; time >= 119 is narrow enough
  // for the unclustered index scan to beat the sequential scan.
  QueryContext ctx;
  ctx.catalog = &db.catalog;
  auto logical = ParseAndSimplify(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 119;", &ctx);
  ASSERT_TRUE(logical.ok());
  Optimizer opt(&db.catalog);
  auto planned = opt.Optimize(**logical, &ctx);
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(CountOps(*planned->plan, PhysOpKind::kIndexScan), 1)
      << PrintPlan(*planned->plan, ctx);

  auto stats = ExecutePlan(*planned->plan, &store, &ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();

  int64_t expected = 0;
  auto members = store.CollectionMembers(CollectionId::Set("Tasks", db.task));
  ASSERT_TRUE(members.ok());
  for (Oid t : **members) {
    Result<const ObjectData*> obj = store.Read(t, /*stream=*/nullptr);
    ASSERT_TRUE(obj.ok());
    if ((*obj)->value(db.task_time).i >= 119) ++expected;
  }
  EXPECT_EQ(stats->rows, expected);
  EXPECT_GT(expected, 0);
}

TEST_F(RangeScanTest, StoredIndexScanOperators) {
  PaperDb db = MakePaperCatalog(0.02);
  ObjectStore store(&db.catalog);
  for (int i = 1; i <= 10; ++i) {
    Oid t = store.Create(db.task);
    store.SetValue(t, db.task_time, Value::Int(i));
    ASSERT_TRUE(store.AddToSet("Tasks", t).ok());
  }
  ASSERT_TRUE(store.AddToSet("Cities", store.Create(db.city)).ok());
  ASSERT_TRUE(store.BuildIndexes().ok());
  auto idx = store.FindIndex(kIdxTasksTime);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->Scan(CmpOp::kEq, Value::Int(3)).size(), 1u);
  EXPECT_EQ((*idx)->Scan(CmpOp::kLt, Value::Int(3)).size(), 2u);
  EXPECT_EQ((*idx)->Scan(CmpOp::kLe, Value::Int(3)).size(), 3u);
  EXPECT_EQ((*idx)->Scan(CmpOp::kGt, Value::Int(8)).size(), 2u);
  EXPECT_EQ((*idx)->Scan(CmpOp::kGe, Value::Int(8)).size(), 3u);
  EXPECT_EQ((*idx)->Scan(CmpOp::kNe, Value::Int(5)).size(), 9u);
}

}  // namespace
}  // namespace oodb
