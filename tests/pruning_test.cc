// Branch-and-bound pruning (the paper's unevaluated "mechanisms for
// heuristic guidance and pruning"): pruning must never change the chosen
// plan's cost — only the search effort.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace oodb {
namespace {

class PruningTest : public ::testing::Test {
 protected:
  PruningTest() : db_(MakePaperCatalog()) {}
  PaperDb db_;
};

TEST_F(PruningTest, SameOptimalCostOnPaperQueries) {
  for (int n : {1, 2, 3, 4}) {
    QueryContext c1, c2;
    OptimizedQuery exhaustive = testing::MustOptimize(n, db_, &c1);
    OptimizerOptions opts;
    opts.enable_pruning = true;
    OptimizedQuery pruned = testing::MustOptimize(n, db_, &c2, opts);
    EXPECT_DOUBLE_EQ(pruned.cost.total(), exhaustive.cost.total())
        << "query " << n;
  }
}

TEST_F(PruningTest, SamePlanShapeOnQuery1) {
  QueryContext c1, c2;
  OptimizedQuery exhaustive = testing::MustOptimize(1, db_, &c1);
  OptimizerOptions opts;
  opts.enable_pruning = true;
  OptimizedQuery pruned = testing::MustOptimize(1, db_, &c2, opts);
  EXPECT_EQ(testing::PlanKinds(*pruned.plan), testing::PlanKinds(*exhaustive.plan));
}

TEST_F(PruningTest, SearchEffortStaysComparableOnSmallQueries) {
  // On tiny memos pruning can cost a few re-searches (an abandoned
  // (group, properties) pair is re-optimized when a caller arrives with a
  // larger budget); assert it stays within a small constant of exhaustive.
  for (int n : {1, 2, 3, 4}) {
    QueryContext c1, c2;
    OptimizedQuery exhaustive = testing::MustOptimize(n, db_, &c1);
    OptimizerOptions opts;
    opts.enable_pruning = true;
    OptimizedQuery pruned = testing::MustOptimize(n, db_, &c2, opts);
    EXPECT_LE(pruned.stats.phys_alternatives,
              exhaustive.stats.phys_alternatives + 10)
        << "query " << n;
  }
}

TEST_F(PruningTest, SameCostUnderRuleAblations) {
  struct Config {
    std::vector<std::string> disabled;
  };
  Config configs[] = {
      {{kRuleJoinCommute}},
      {{kImplIndexScan}},
      {{kRuleMatToJoin}},
      {{kImplHybridHashJoin}},
  };
  for (int n : {1, 2, 3, 4}) {
    for (const Config& config : configs) {
      OptimizerOptions base;
      base.disabled_rules = config.disabled;
      OptimizerOptions with = base;
      with.enable_pruning = true;
      QueryContext c1, c2;
      OptimizedQuery a = testing::MustOptimize(n, db_, &c1, base);
      OptimizedQuery b = testing::MustOptimize(n, db_, &c2, with);
      EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total()) << "query " << n;
    }
  }
}

TEST_F(PruningTest, SameCostAcrossIndexConfigurations) {
  for (bool time_idx : {false, true}) {
    for (bool name_idx : {false, true}) {
      ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxTasksTime, time_idx).ok());
      ASSERT_TRUE(
          db_.catalog.SetIndexEnabled(kIdxEmployeesName, name_idx).ok());
      QueryContext c1, c2;
      OptimizedQuery a = testing::MustOptimize(4, db_, &c1);
      OptimizerOptions opts;
      opts.enable_pruning = true;
      OptimizedQuery b = testing::MustOptimize(4, db_, &c2, opts);
      EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
    }
  }
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxTasksTime, true).ok());
  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxEmployeesName, true).ok());
}

TEST_F(PruningTest, ComplexJoinChainSameCostLessEffort) {
  auto run = [&](const char* text, bool prune) {
    QueryContext ctx;
    ctx.catalog = &db_.catalog;
    auto logical = ParseAndSimplify(text, &ctx);
    EXPECT_TRUE(logical.ok());
    OptimizerOptions opts;
    opts.enable_pruning = prune;
    Optimizer opt(&db_.catalog, opts);
    auto r = opt.Optimize(**logical, &ctx);
    EXPECT_TRUE(r.ok()) << r.status();
    return *std::move(r);
  };
  // A 4-way join has enough alternatives for the bound to bite.
  const char* chain =
      "SELECT e1.name FROM Employee e1 IN Employees, Employee e2 IN "
      "Employees, Employee e3 IN Employees, Employee e4 IN Employees "
      "WHERE e1.name == e2.name && e2.age == e3.age && "
      "e3.salary == e4.salary;";
  // So does a join whose inputs reach objects through references, with its
  // competing assembly and join alternatives.
  const char* refs =
      "SELECT c.name FROM City c IN Cities, Employee e IN Employees "
      "WHERE c.mayor.name == e.name && e.dept.floor == 3 && "
      "c.population > 1000;";
  for (const char* text : {chain, refs}) {
    SCOPED_TRACE(text);
    OptimizedQuery exhaustive = run(text, false);
    OptimizedQuery pruned = run(text, true);
    EXPECT_DOUBLE_EQ(pruned.cost.total(), exhaustive.cost.total());
    EXPECT_LT(pruned.stats.phys_alternatives,
              exhaustive.stats.phys_alternatives);
  }
}

}  // namespace
}  // namespace oodb
