// End-to-end optimizer tests reproducing the paper's Section 4 experiments:
// plan shapes and cost relationships for Queries 1-4 under the paper's rule
// configurations.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace oodb {
namespace {

using testing::MustOptimize;
using testing::PlanContains;
using testing::PlanKinds;

class PaperQueriesTest : public ::testing::Test {
 protected:
  PaperQueriesTest() : db_(MakePaperCatalog()) {}
  PaperDb db_;
};

// --- Query 1 (Figures 5-7, Table 2) ---

TEST_F(PaperQueriesTest, Query1SimplifiedShapeMatchesFigure5) {
  QueryContext ctx;
  auto logical = BuildPaperQuery(1, db_, &ctx);
  ASSERT_TRUE(logical.ok()) << logical.status();
  std::string printed = PrintLogicalTree(**logical, ctx);
  // Figure 5: Project over Select over three Mats over Get Employees.
  EXPECT_NE(printed.find("Project e.name, e.job.name, e.dept.name"),
            std::string::npos);
  EXPECT_NE(printed.find("Select e.dept.plant.location == \"Dallas\""),
            std::string::npos);
  EXPECT_NE(printed.find("Mat e.dept.plant"), std::string::npos);
  EXPECT_NE(printed.find("Mat e.dept"), std::string::npos);
  EXPECT_NE(printed.find("Mat e.job"), std::string::npos);
  EXPECT_NE(printed.find("Get Employees: e"), std::string::npos);
}

TEST_F(PaperQueriesTest, Query1OptimalPlanMatchesFigure6) {
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(1, db_, &ctx);
  // Two hash joins (job and dept links traversed in the reverse, value-based
  // direction) and exactly one assembly (d.plant, below the filter).
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kHybridHashJoin), 2);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kAssembly), 1);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Assembly e.dept.plant"));
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "File Scan extent(Department)"));
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "File Scan extent(Job)"));
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "File Scan Employees"));
  // The filter runs over the 1000 departments, not the 50000 employees: the
  // assembly below it must see department-level cardinality.
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Filter e.dept.plant.location"));
}

TEST_F(PaperQueriesTest, Query1WithoutCommutativityIsPointerChasing) {
  QueryContext ctx;
  OptimizerOptions opts;
  opts.disabled_rules = {kRuleJoinCommute};
  OptimizedQuery q = MustOptimize(1, db_, &ctx, opts);
  // Figure 7: no joins at all — pure assembly pipeline over the Employees
  // scan.
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kHybridHashJoin), 0);
  EXPECT_GE(CountOps(*q.plan, PhysOpKind::kAssembly), 2);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "File Scan Employees"));
}

TEST_F(PaperQueriesTest, Query1Table2CostOrdering) {
  QueryContext ctx1, ctx2, ctx3;
  OptimizedQuery all = MustOptimize(1, db_, &ctx1);

  OptimizerOptions no_comm;
  no_comm.disabled_rules = {kRuleJoinCommute};
  OptimizedQuery wo_comm = MustOptimize(1, db_, &ctx2, no_comm);

  OptimizerOptions no_window = no_comm;
  no_window.cost.assembly_window = 1;
  OptimizedQuery wo_window = MustOptimize(1, db_, &ctx3, no_window);

  // Table 2 shape: optimal < w/o commutativity < w/o window, with the
  // paper's ratios (~4.2x and ~7.4x) preserved within a factor of ~2.
  double r_comm = wo_comm.cost.total() / all.cost.total();
  double r_window = wo_window.cost.total() / all.cost.total();
  EXPECT_GT(r_comm, 2.5);
  EXPECT_LT(r_comm, 9.0);
  EXPECT_GT(r_window, 5.0);
  EXPECT_LT(r_window, 16.0);
  EXPECT_GT(r_window, r_comm);
}

TEST_F(PaperQueriesTest, Query1SearchShrinksAsRulesDisabled) {
  QueryContext ctx1, ctx2;
  OptimizedQuery all = MustOptimize(1, db_, &ctx1);
  OptimizerOptions no_comm;
  no_comm.disabled_rules = {kRuleJoinCommute};
  OptimizedQuery wo_comm = MustOptimize(1, db_, &ctx2, no_comm);
  // Table 2's "% of Exh. Search" column: fewer expressions generated.
  EXPECT_LT(wo_comm.stats.expressions(), all.stats.expressions());
  EXPECT_LT(wo_comm.stats.logical_mexprs, all.stats.logical_mexprs);
}

// --- Query 2 (Figures 8-9) ---

TEST_F(PaperQueriesTest, Query2CollapsesToIndexScan) {
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(2, db_, &ctx);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kIndexScan), 1);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kAssembly), 0);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Index Scan Cities"));
  // Paper: estimated cost 0.08 s; ours should be within a small factor.
  EXPECT_LT(q.cost.total(), 0.2);
}

TEST_F(PaperQueriesTest, Query2WithoutCollapseRuleMatchesFigure9) {
  QueryContext ctx;
  OptimizerOptions opts;
  opts.disabled_rules = {kImplIndexScan};
  OptimizedQuery q = MustOptimize(2, db_, &ctx, opts);
  // Figure 9: filter over assembly over a full file scan of Cities.
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Filter c.mayor.name"));
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Assembly c.mayor"));
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "File Scan Cities"));
  // ~3 orders of magnitude more expensive (paper: 0.08 s vs 119.6 s).
  QueryContext ctx2;
  OptimizedQuery fast = MustOptimize(2, db_, &ctx2);
  EXPECT_GT(q.cost.total() / fast.cost.total(), 500);
}

TEST_F(PaperQueriesTest, Query2WithoutIndexSameAsWithoutRule) {
  // "If the collapse-to-index-scan rule is disabled (or no index on this
  // path exists), the optimizer returns the plan shown in Figure 9."
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxCitiesMayorName, false).ok());
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(2, db_, &ctx);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kIndexScan), 0);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Assembly c.mayor"));
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxCitiesMayorName, true).ok());
}

// --- Query 3 (Figures 10-11): the present-in-memory property ---

TEST_F(PaperQueriesTest, Query3UsesIndexScanPlusAssemblyEnforcer) {
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(3, db_, &ctx);
  // Figure 10: Alg-Project over Assembly (enforcer) over Index Scan.
  std::vector<PhysOpKind> kinds = PlanKinds(*q.plan);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], PhysOpKind::kAlgProject);
  EXPECT_EQ(kinds[1], PhysOpKind::kAssembly);
  EXPECT_EQ(kinds[2], PhysOpKind::kIndexScan);
}

TEST_F(PaperQueriesTest, Query3SlightlyCostlierThanQuery2) {
  // The mayor components of the 2 qualifying cities must be fetched:
  // paper 0.12 s vs 0.08 s.
  QueryContext ctx2, ctx3;
  OptimizedQuery q2 = MustOptimize(2, db_, &ctx2);
  OptimizedQuery q3 = MustOptimize(3, db_, &ctx3);
  EXPECT_GT(q3.cost.total(), q2.cost.total());
  EXPECT_LT(q3.cost.total(), q2.cost.total() * 3);
}

TEST_F(PaperQueriesTest, Query3ThreeOrdersBetterThanFilterPlan) {
  QueryContext ctx, ctx2;
  OptimizedQuery fast = MustOptimize(3, db_, &ctx);
  OptimizerOptions opts;
  opts.disabled_rules = {kImplIndexScan};
  OptimizedQuery slow = MustOptimize(3, db_, &ctx2, opts);
  EXPECT_GT(slow.cost.total() / fast.cost.total(), 500);
}

TEST_F(PaperQueriesTest, Query3WithoutEnforcerFallsBackToFilterPlan) {
  QueryContext ctx;
  OptimizerOptions opts;
  opts.disabled_rules = {kEnforcerAssembly};
  OptimizedQuery q = MustOptimize(3, db_, &ctx, opts);
  // Without the enforcer the index scan cannot deliver the mayor in memory,
  // so Mat must be implemented directly (assembly-as-implementation over a
  // scan) — far more expensive.
  QueryContext ctx2;
  OptimizedQuery fast = MustOptimize(3, db_, &ctx2);
  EXPECT_GT(q.cost.total(), fast.cost.total() * 100);
}

// --- Query 4 (Figures 12-13, Table 3) ---

TEST_F(PaperQueriesTest, Query4OptimalUsesOnlyTimeIndex) {
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(4, db_, &ctx);
  // Figure 12: Filter(name) over Assembly over Alg-Unnest over Index Scan
  // Tasks — the name index is NOT used even though it exists.
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kIndexScan), 1);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Index Scan Tasks"));
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kHybridHashJoin), 0);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kAlgUnnest), 1);
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kAssembly), 1);
}

TEST_F(PaperQueriesTest, Query4Table3CostOrdering) {
  auto optimize_with = [&](bool time_idx, bool name_idx) {
    EXPECT_TRUE(db_.catalog.SetIndexEnabled(kIdxTasksTime, time_idx).ok());
    EXPECT_TRUE(db_.catalog.SetIndexEnabled(kIdxEmployeesName, name_idx).ok());
    QueryContext ctx;
    OptimizedQuery q = MustOptimize(4, db_, &ctx);
    return q.cost.total();
  };
  double none = optimize_with(false, false);
  double time_only = optimize_with(true, false);
  double name_only = optimize_with(false, true);
  double both = optimize_with(true, true);
  EXPECT_TRUE(db_.catalog.SetIndexEnabled(kIdxTasksTime, true).ok());
  EXPECT_TRUE(db_.catalog.SetIndexEnabled(kIdxEmployeesName, true).ok());

  // Table 3's "All rules" row: 108 > 28.4 > 1.73 == 1.73.
  EXPECT_GT(none, name_only);
  EXPECT_GT(name_only, time_only);
  // "Both" matches "time only" up to the tiny cardinality effect the name
  // index has on the final filter's selectivity estimate.
  EXPECT_NEAR(both, time_only, 0.05 * time_only);
  EXPECT_GT(none / time_only, 20);
}

TEST_F(PaperQueriesTest, Query4NameOnlyUsesReverseJoin) {
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxTasksTime, false).ok());
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(4, db_, &ctx);
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxTasksTime, true).ok());
  // With only the name index, the winning plan joins the Fred employees
  // (via the extent index) against the unnested team members — traversing
  // the membership reference in the reverse direction.
  EXPECT_EQ(CountOps(*q.plan, PhysOpKind::kHybridHashJoin), 1);
  EXPECT_TRUE(PlanContains(*q.plan, ctx, "Index Scan extent(Employee)"));
}

// --- General optimizer behaviour ---

TEST_F(PaperQueriesTest, OptimizationIsFast) {
  // Paper: "moderately complex queries should be optimized ... in less than
  // 1 sec" on a 1993 workstation; we expect far less.
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(1, db_, &ctx);
  EXPECT_LT(q.stats.optimize_seconds, 1.0);
}

TEST_F(PaperQueriesTest, StatsPopulated) {
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(1, db_, &ctx);
  EXPECT_GT(q.stats.groups, 0);
  EXPECT_GT(q.stats.logical_mexprs, 0);
  EXPECT_GT(q.stats.phys_alternatives, 0);
  EXPECT_GT(q.stats.transformation_firings, 0);
  EXPECT_GT(q.stats.impl_firings, 0);
}

TEST_F(PaperQueriesTest, PlanCostsAreConsistent) {
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(1, db_, &ctx);
  // total = local + sum(children totals), recursively.
  std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
    Cost sum = n.local_cost;
    for (const PlanNodePtr& c : n.children) sum += c->total_cost;
    EXPECT_NEAR(sum.total(), n.total_cost.total(), 1e-9);
    for (const PlanNodePtr& c : n.children) check(*c);
  };
  check(*q.plan);
}

TEST_F(PaperQueriesTest, DeliveredPropertiesSatisfyPredicates) {
  // Every Filter's predicate load requirements are delivered by its child —
  // the invariant the property machinery must maintain.
  QueryContext ctx;
  OptimizedQuery q = MustOptimize(1, db_, &ctx);
  std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
    if (n.op.kind == PhysOpKind::kFilter) {
      BindingSet needs = LoadRequirements(n.op.pred, ctx);
      EXPECT_TRUE(n.children[0]->delivered.in_memory.ContainsAll(needs));
    }
    for (const PlanNodePtr& c : n.children) check(*c);
  };
  check(*q.plan);
}

TEST_F(PaperQueriesTest, MismatchedCatalogRejected) {
  PaperDb other = MakePaperCatalog();
  QueryContext ctx;
  auto logical = BuildPaperQuery(2, db_, &ctx);
  ASSERT_TRUE(logical.ok());
  Optimizer opt(&other.catalog);
  EXPECT_FALSE(opt.Optimize(**logical, &ctx).ok());
}

TEST_F(PaperQueriesTest, DisablingFileScanBreaksPlanning) {
  QueryContext ctx;
  auto logical = BuildPaperQuery(1, db_, &ctx);
  ASSERT_TRUE(logical.ok());
  OptimizerOptions opts;
  opts.disabled_rules = {kImplFileScan, kImplIndexScan};
  Optimizer opt(&db_.catalog, opts);
  EXPECT_FALSE(opt.Optimize(**logical, &ctx).ok());
}

}  // namespace
}  // namespace oodb
