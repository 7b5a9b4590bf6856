// ORDER BY: the sort-order physical property end-to-end — required of the
// plan root, supplied by the Sort enforcer or by an order-delivering
// algorithm (a simple index scan emits key order for free).
#include <gtest/gtest.h>

#include "tests/harness.h"

namespace oodb {
namespace {

TEST(OrderByParseTest, ParserAndBuilderAgree) {
  auto q = ParseZqlForTest("SELECT e.name FROM Employee e IN Employees "
                           "WHERE e.age >= 30 "
                           "ORDER BY e.salary DESC, e.name LIMIT 5;");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_EQ(q->order_by[0].path->path,
            (std::vector<std::string>{"e", "salary"}));
  EXPECT_TRUE(q->order_by[0].desc);
  EXPECT_EQ(q->order_by[1].path->path, (std::vector<std::string>{"e", "name"}));
  EXPECT_FALSE(q->order_by[1].desc);
  EXPECT_EQ(q->limit, 5);

  ZqlQuery built = QueryBuilder()
                       .Select(zql::Path("e.name"))
                       .From("Employee", "e", "Employees")
                       .Where(zql::Ge(zql::Path("e.age"), zql::Lit(int64_t{30})))
                       .OrderBy("e.salary", /*desc=*/true)
                       .OrderBy("e.name")
                       .Limit(5)
                       .Build();
  EXPECT_EQ(built.ToString(), q->ToString());
}

TEST(OrderByParseTest, LimitDiagnostics) {
  EXPECT_FALSE(ParseZql("SELECT e.name FROM Employee e IN Employees "
                        "ORDER BY e.name LIMIT 0;")
                   .ok());
  EXPECT_FALSE(ParseZql("SELECT e.name FROM Employee e IN Employees "
                        "ORDER BY e.name LIMIT;")
                   .ok());
  EXPECT_FALSE(ParseZql("SELECT e.name FROM Employee e IN Employees "
                        "ORDER BY;")
                   .ok());
}

class OrderByTest : public ::testing::Test {
 protected:
  OrderByTest() : db_(MakePaperCatalog(0.05)), session_(&db_.catalog) {
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(db_, &session_.store(), gen);
    EXPECT_TRUE(r.ok()) << r.status();
  }

  /// First plan node of `kind` in preorder, or null.
  static const PlanNode* FindOp(const PlanNode& plan, PhysOpKind kind) {
    if (plan.op.kind == kind) return &plan;
    for (const PlanNodePtr& c : plan.children) {
      if (const PlanNode* f = FindOp(*c, kind)) return f;
    }
    return nullptr;
  }

  PaperDb db_;
  Session session_;
};

// Ordered queries as lines of the differential deck (tests/harness.h) on
// this fixture's database: the delivered rows match the reference run by
// run of equal ORDER BY keys, exactly where a file scan's order is kept.
TEST_F(OrderByTest, SortEnforcerProducesOrderedRows) {
  testing::LineRun r = testing::ExpectLine(
      "db=paper5 | SELECT e.age, e.name FROM Employee e IN Employees "
      "WHERE e.age >= 40 ORDER BY e.age;");
  ASSERT_GT(r.rows(), 2);
  EXPECT_EQ(CountOps(*r.plan, PhysOpKind::kSort), 1);
}

TEST_F(OrderByTest, OrderByUnprojectedColumnWorks) {
  // The sort key (salary) is not in the SELECT list: the sort must happen
  // below the projection, where the binding is still in scope.
  testing::LineRun r = testing::ExpectLine(
      "db=paper5 | SELECT e.name FROM Employee e IN Employees "
      "WHERE e.age >= 60 ORDER BY e.salary;");
  EXPECT_EQ(CountOps(*r.plan, PhysOpKind::kSort), 1);
  EXPECT_GT(r.rows(), 0);
}

TEST_F(OrderByTest, OrderByPathLoadsComponent) {
  EXPECT_GT(testing::ExpectLine("db=paper5 | SELECT c.name, c.mayor.age FROM "
                                "City c IN Cities WHERE c.population >= "
                                "500000 ORDER BY c.mayor.age;")
                .rows(),
            2);
}

TEST_F(OrderByTest, IndexScanDeliversOrderWithoutSort) {
  // A narrow range on the indexed key, ordered by that key: the simple
  // index scan already emits key order — no Sort operator needed.
  testing::LineRun r = testing::ExpectLine(
      "db=paper5 | SELECT t.time, t.name FROM Task t IN Tasks "
      "WHERE t.time >= 29 ORDER BY t.time;");
  ASSERT_GT(r.rows(), 1);
  EXPECT_EQ(CountOps(*r.plan, PhysOpKind::kIndexScan), 1);
  EXPECT_EQ(CountOps(*r.plan, PhysOpKind::kSort), 0);
}

TEST_F(OrderByTest, DescendingOrderDelivered) {
  EXPECT_GT(testing::ExpectLine("db=paper5 | SELECT e.age, e.name FROM "
                                "Employee e IN Employees WHERE e.age >= 40 "
                                "ORDER BY e.age DESC;")
                .rows(),
            2);
}

TEST_F(OrderByTest, MultiKeyOrderIsLexicographic) {
  EXPECT_GT(testing::ExpectLine("db=paper5 | SELECT e.age, e.salary FROM "
                                "Employee e IN Employees WHERE e.age >= 30 "
                                "ORDER BY e.age, e.salary DESC;")
                .rows(),
            2);
}

TEST_F(OrderByTest, TopKMatchesSortedPrefix) {
  // The bounded heap must deliver exactly the stable full-sort prefix.
  const std::string base =
      "db=paper5 | SELECT e.age, e.name FROM Employee e IN Employees "
      "WHERE e.age >= 30 ORDER BY e.age, e.name";
  EXPECT_GT(testing::ExpectLine(base + ";").rows(), 5);
  testing::LineRun topk = testing::ExpectLine(base + " LIMIT 5;");
  EXPECT_EQ(CountOps(*topk.plan, PhysOpKind::kTopK), 1);
  EXPECT_EQ(CountOps(*topk.plan, PhysOpKind::kSort), 0);
  EXPECT_EQ(topk.rows(), 5);
}

TEST_F(OrderByTest, StreamingTopKOverIndexOrder) {
  // The index already delivers t.time order: top-k degenerates to a
  // streaming first-k cutoff (sort_prefix covers every key, heap unused).
  testing::LineRun r = testing::ExpectLine(
      "db=paper5 | SELECT t.time, t.name FROM Task t IN Tasks "
      "WHERE t.time >= 29 ORDER BY t.time LIMIT 3;");
  const PlanNode* tk = FindOp(*r.plan, PhysOpKind::kTopK);
  ASSERT_NE(tk, nullptr);
  EXPECT_EQ(static_cast<size_t>(tk->op.sort_prefix), tk->op.sort.size());
  EXPECT_EQ(CountOps(*r.plan, PhysOpKind::kSort), 0);
}

TEST_F(OrderByTest, PartialSortReusesIndexPrefix) {
  // Leading key t.time arrives sorted from the index; only the tie-break
  // key t.name needs sorting, per run of equal times.
  testing::LineRun r = testing::ExpectLine(
      "db=paper5 | SELECT t.time, t.name FROM Task t IN Tasks "
      "WHERE t.time >= 29 ORDER BY t.time, t.name;");
  ASSERT_GT(r.rows(), 2);
  ASSERT_EQ(CountOps(*r.plan, PhysOpKind::kIndexScan), 1);
  const PlanNode* sort = FindOp(*r.plan, PhysOpKind::kSort);
  ASSERT_NE(sort, nullptr);
  EXPECT_EQ(sort->op.sort_prefix, 1);
}

TEST_F(OrderByTest, CachedPlanReboundToNewLimit) {
  // Same query shape, different LIMIT: the cached plan is k-parameterized
  // (bucketed fingerprint) and must be rebound to the new row count.
  const std::string base =
      "SELECT e.age, e.name FROM Employee e IN Employees "
      "WHERE e.age >= 30 ORDER BY e.age, e.name LIMIT ";
  auto r3 = session_.Query(base + "3;");
  auto r5 = session_.Query(base + "5;");
  ASSERT_TRUE(r3.ok()) << r3.status();
  ASSERT_TRUE(r5.ok()) << r5.status();
  EXPECT_EQ(r3->rows().size(), 3u);
  EXPECT_EQ(r5->rows().size(), 5u);
  // The shorter result is the longer one's prefix.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r3->rows()[i][0].Compare(r5->rows()[i][0]), 0) << "row " << i;
    EXPECT_EQ(r3->rows()[i][1].Compare(r5->rows()[i][1]), 0) << "row " << i;
  }
}

TEST_F(OrderByTest, SortedPlanCostsMoreThanUnsorted) {
  auto unsorted = session_.Query(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;");
  auto sorted = session_.Query(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40 "
      "ORDER BY e.name;");
  ASSERT_TRUE(unsorted.ok());
  ASSERT_TRUE(sorted.ok());
  EXPECT_GT(sorted->optimized.cost.total(), unsorted->optimized.cost.total());
  EXPECT_EQ(sorted->exec.rows, unsorted->exec.rows);
}

TEST_F(OrderByTest, BareVariableOrderByRejected) {
  EXPECT_FALSE(session_.Query(
                           "SELECT e.name FROM Employee e IN Employees "
                           "ORDER BY e;")
                   .ok());
}

TEST_F(OrderByTest, SimplifyWithoutOrderOutputRejected) {
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  EXPECT_FALSE(ParseAndSimplify(
                   "SELECT e.name FROM Employee e IN Employees "
                   "ORDER BY e.age;",
                   &ctx, /*order=*/nullptr)
                   .ok());
}

}  // namespace
}  // namespace oodb
