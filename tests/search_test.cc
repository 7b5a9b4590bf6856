// Search-engine and physical-property unit tests: winner memoization,
// property satisfaction, plan utilities, and operator rendering.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tests/harness.h"

namespace oodb {
namespace {

// --- PhysProps ---

TEST(PhysPropsTest, SatisfiesIsSupersetOnMemory) {
  PhysProps have, need;
  have.in_memory.Add(1);
  have.in_memory.Add(2);
  need.in_memory.Add(1);
  EXPECT_TRUE(have.Satisfies(need));
  EXPECT_FALSE(need.Satisfies(have));
  EXPECT_TRUE(have.Satisfies(PhysProps{}));
}

TEST(PhysPropsTest, SortMustMatchExactly) {
  PhysProps have, need;
  have.sort = SortSpec{1, 2};
  EXPECT_TRUE(have.Satisfies(need));  // no sort required
  need.sort = SortSpec{1, 2};
  EXPECT_TRUE(have.Satisfies(need));
  need.sort = SortSpec{1, 3};
  EXPECT_FALSE(have.Satisfies(need));
  PhysProps unsorted;
  EXPECT_FALSE(unsorted.Satisfies(need));
}

TEST(PhysPropsTest, OrderingForWinnerMap) {
  PhysProps a, b;
  a.in_memory.Add(1);
  b.in_memory.Add(2);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
  PhysProps c = a;
  c.sort = SortSpec{0, 0};
  EXPECT_TRUE(a < c || c < a);
}

class PropsFixture : public ::testing::Test {
 protected:
  PropsFixture() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
    c_ = ctx_.bindings.AddGet("c", db_.city);
    m_ = ctx_.bindings.AddMat("c.mayor", db_.person, c_, db_.city_mayor);
    t_ = ctx_.bindings.AddGet("t", db_.task);
    r_ = ctx_.bindings.AddUnnest("r", db_.employee, t_, db_.task_team_members);
  }
  PaperDb db_;
  QueryContext ctx_;
  BindingId c_, m_, t_, r_;
};

TEST_F(PropsFixture, LoadRequirementsAttrVsSelf) {
  // Attr reads need the object loaded; Self (the OID) does not.
  ScalarExprPtr attr = ScalarExpr::Attr(m_, db_.person_name);
  EXPECT_TRUE(LoadRequirements(attr, ctx_).Contains(m_));
  ScalarExprPtr self = ScalarExpr::Self(m_);
  EXPECT_TRUE(LoadRequirements(self, ctx_).Empty());
  ScalarExprPtr cmp = ScalarExpr::RefEq(c_, db_.city_mayor, m_);
  BindingSet needs = LoadRequirements(cmp, ctx_);
  EXPECT_TRUE(needs.Contains(c_));
  EXPECT_FALSE(needs.Contains(m_));
}

TEST_F(PropsFixture, LoadableBindingsExcludesRefs) {
  BindingSet all;
  all.Add(c_);
  all.Add(r_);
  BindingSet loadable = LoadableBindings(all, ctx_);
  EXPECT_TRUE(loadable.Contains(c_));
  EXPECT_FALSE(loadable.Contains(r_));
}

TEST_F(PropsFixture, ToStringNamesBindings) {
  PhysProps p;
  p.in_memory.Add(c_);
  p.in_memory.Add(m_);
  std::string s = p.ToString(ctx_);
  EXPECT_NE(s.find("c"), std::string::npos);
  EXPECT_NE(s.find("c.mayor"), std::string::npos);
}

// --- Physical operator rendering ---

TEST_F(PropsFixture, PhysicalOpToStringAllKinds) {
  PhysicalOp scan;
  scan.kind = PhysOpKind::kFileScan;
  scan.coll = CollectionId::Set("Cities", db_.city);
  scan.binding = c_;
  EXPECT_EQ(scan.ToString(ctx_), "File Scan Cities: c");

  PhysicalOp idx;
  idx.kind = PhysOpKind::kIndexScan;
  idx.coll = scan.coll;
  idx.binding = c_;
  idx.index_name = kIdxCitiesMayorName;
  idx.index_pred = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
  idx.pred = ScalarExpr::AttrCmpInt(c_, db_.city_population, CmpOp::kGe, 5);
  std::string s = idx.ToString(ctx_);
  EXPECT_NE(s.find("Index Scan Cities"), std::string::npos);
  EXPECT_NE(s.find("[residual"), std::string::npos);

  PhysicalOp assembly;
  assembly.kind = PhysOpKind::kAssembly;
  assembly.mats = {MatStep{c_, db_.city_mayor, m_}};
  assembly.window = 1;
  assembly.warm_start = true;
  s = assembly.ToString(ctx_);
  EXPECT_NE(s.find("Assembly c.mayor"), std::string::npos);
  EXPECT_NE(s.find("[window 1]"), std::string::npos);
  EXPECT_NE(s.find("[warm-start]"), std::string::npos);

  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = SortSpec{c_, db_.city_name};
  EXPECT_EQ(sort.ToString(ctx_), "Sort c.name");
}

// --- Plan utilities ---

TEST_F(PropsFixture, PlanTotalsAndCounting) {
  PhysicalOp scan;
  scan.kind = PhysOpKind::kFileScan;
  scan.coll = CollectionId::Set("Cities", db_.city);
  scan.binding = c_;
  LogicalProps props;
  props.scope = BindingSet::Of(c_);
  props.card = 10;
  PlanNodePtr leaf =
      PlanNode::Make(scan, {}, props, PhysProps{}, Cost{1.0, 2.0});
  PhysicalOp filter;
  filter.kind = PhysOpKind::kFilter;
  filter.pred = ScalarExpr::AttrCmpInt(c_, db_.city_population, CmpOp::kGe, 5);
  PlanNodePtr root =
      PlanNode::Make(filter, {leaf}, props, PhysProps{}, Cost{0.5, 0.5});
  EXPECT_DOUBLE_EQ(root->total_cost.total(), 4.0);
  EXPECT_DOUBLE_EQ(root->local_cost.total(), 1.0);
  EXPECT_EQ(CountOps(*root, PhysOpKind::kFileScan), 1);
  EXPECT_EQ(CountOps(*root, PhysOpKind::kFilter), 1);
  EXPECT_EQ(CountOps(*root, PhysOpKind::kAssembly), 0);
  EXPECT_EQ(PlanOpStrings(*root, ctx_).size(), 2u);
  std::string printed = PrintPlan(*root, ctx_, true);
  EXPECT_NE(printed.find("[card 10"), std::string::npos);
}

// --- Search-engine behaviour ---

TEST(SearchEngineTest, WinnersAreMemoizedAcrossProperties) {
  // Query 3 optimizes the select group under {} and under {c, c.mayor};
  // both winners coexist in the memo (verified indirectly: two optimize
  // calls of the same query produce identical stats — deterministic reuse).
  PaperDb db = MakePaperCatalog();
  QueryContext c1, c2;
  OptimizedQuery a = testing::MustOptimize(3, db, &c1);
  OptimizedQuery b = testing::MustOptimize(3, db, &c2);
  EXPECT_EQ(a.stats.phys_alternatives, b.stats.phys_alternatives);
  EXPECT_EQ(a.stats.logical_mexprs, b.stats.logical_mexprs);
  EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
}

TEST(SearchEngineTest, DeterministicPlans) {
  PaperDb db = MakePaperCatalog();
  for (int n : {1, 2, 3, 4}) {
    QueryContext c1, c2;
    OptimizedQuery a = testing::MustOptimize(n, db, &c1);
    OptimizedQuery b = testing::MustOptimize(n, db, &c2);
    EXPECT_EQ(PlanOpStrings(*a.plan, c1), PlanOpStrings(*b.plan, c2));
  }
}

TEST(SearchEngineTest, StatsAccumulateAcrossPhases) {
  PaperDb db = MakePaperCatalog();
  QueryContext ctx;
  OptimizedQuery q = testing::MustOptimize(1, db, &ctx);
  EXPECT_GT(q.stats.enforcer_firings, 0);
  EXPECT_GE(q.stats.expressions(),
            q.stats.logical_mexprs + q.stats.phys_alternatives);
  EXPECT_GT(q.stats.optimize_seconds, 0.0);
}

// --- Exploration ---

constexpr const char* kTwoRangeJoin =
    "SELECT e1.name, e2.age FROM Employee e1 IN Employees, "
    "Employee e2 IN Employees WHERE e1.name == e2.name && "
    "e1.age == 31 && e2.age == 44;";
constexpr const char* kThreeRangeJoin =
    "SELECT e1.name, e3.age FROM Employee e1 IN Employees, "
    "Employee e2 IN Employees, Employee e3 IN Employees "
    "WHERE e1.name == e2.name && e2.name == e3.name && "
    "e1.age == 31 && e2.age == 44 && e3.age == 52;";

/// Paper query `n` (1-4), or `text` when n is 0.
LogicalExprPtr BuildQuery(const PaperDb& db, int n, const std::string& text,
                          QueryContext* ctx) {
  ctx->catalog = &db.catalog;
  Result<LogicalExprPtr> logical =
      n > 0 ? BuildPaperQuery(n, db, ctx) : ParseAndSimplify(text, ctx);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  return logical.ok() ? *logical : nullptr;
}

TEST(SearchEngineTest, GoldenMemoIdentity) {
  // Search counters and optimal costs of the default optimizer. The
  // logical columns (groups, m-exprs, transformation firings) pin the memo
  // exploration builds; the physical columns and the cost follow the
  // cardinality estimates the groups carry.
  struct Golden {
    const char* name;
    int paper;  // 0: `text`
    std::string text;
    int groups, mexprs, firings, impl_firings, alternatives;
    double cost;  // < 0: not pinned
  };
  const std::vector<Golden> goldens = {
      {"Q1", 1, "", 16, 39, 47, 210, 129, 146.5164},
      {"Q2", 2, "", 6, 10, 15, 30, 18, 0.081401},
      {"Q3", 3, "", 6, 10, 15, 45, 29, 0.103803},
      {"Q4", 4, "", 11, 26, 53, 74, 44, 1.634105},
      {"3-range", 0, kThreeRangeJoin, 21, 53, 94, 102, 47, 566.664820},
      {"2-range", 0, kTwoRangeJoin, 10, 22, 45, 37, 18, 166.383158},
      {"E12 complex", 0, kComplexQueryText, 25, 67, 125, 172, 79,
       1771.221732},
      {"chain 2", 0, JoinChainQueryText(2), 5, 8, 7, 21, 10, -1},
      {"chain 3", 0, JoinChainQueryText(3), 12, 28, 32, 68, 32, -1},
      {"chain 4", 0, JoinChainQueryText(4), 23, 76, 85, 195, 94, -1},
      {"chain 5", 0, JoinChainQueryText(5), 42, 216, 230, 508, 237, -1},
  };
  PaperDb db = MakePaperCatalog();
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    QueryContext ctx;
    LogicalExprPtr logical = BuildQuery(db, g.paper, g.text, &ctx);
    ASSERT_NE(logical, nullptr);
    Result<OptimizedQuery> q = Optimizer(&db.catalog).Optimize(*logical, &ctx);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q->stats.groups, g.groups);
    EXPECT_EQ(q->stats.logical_mexprs, g.mexprs);
    EXPECT_EQ(q->stats.transformation_firings, g.firings);
    EXPECT_EQ(q->stats.impl_firings, g.impl_firings);
    EXPECT_EQ(q->stats.phys_alternatives, g.alternatives);
    if (g.cost >= 0) {
      EXPECT_NEAR(q->cost.total(), g.cost, 1e-6);
    }
  }
}

TEST(SearchEngineTest, CanonicalSelectKeepsTheLiteralJoinSearchSmall) {
  // One Select per conjunct set: exploration no longer splits and re-merges
  // conjunctions (the 3-range literal join built 1,478 m-exprs and
  // discarded 16,550 duplicate rule outputs that way). Counts, not wall
  // clock.
  PaperDb db = MakePaperCatalog();
  QueryContext ctx;
  LogicalExprPtr logical = BuildQuery(db, 0, kThreeRangeJoin, &ctx);
  ASSERT_NE(logical, nullptr);
  Result<OptimizedQuery> q = Optimizer(&db.catalog).Optimize(*logical, &ctx);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_LE(q->stats.logical_mexprs, 100);
  EXPECT_LE(q->stats.duplicates, 200);
}

TEST(SearchEngineTest, JoinOrderTracesTheSubsetGroupsItBuilds) {
  // One firing of the join-order rule builds the groups of its join
  // graph's subsets; every expression it adds there is a rule_fired event,
  // as any firing's output is. Chain 4 has 11 sets of two or more ranges.
  PaperDb db = MakePaperCatalog();
  QueryContext ctx;
  LogicalExprPtr logical = BuildQuery(db, 0, JoinChainQueryText(4), &ctx);
  ASSERT_NE(logical, nullptr);
  OptTrace trace;
  OptimizerOptions opts;
  opts.trace_sink = &trace;
  Result<OptimizedQuery> q =
      Optimizer(&db.catalog, opts).Optimize(*logical, &ctx);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(trace.dropped(), 0);
  std::set<int> groups;
  for (const OptEvent& e : trace.Events()) {
    if (e.kind == OptEventKind::kRuleFired &&
        std::string(e.rule) == kRuleJoinOrder) {
      groups.insert(e.group);
    }
  }
  EXPECT_GE(groups.size(), 11u);
}

// --- Search monotonicity: a superset of rules never finds a costlier
// optimum (Table 2's ablation method run in reverse) ---

/// A deck line (tests/harness.h) on the paper's Table 1 catalog
/// (`db=paper100`) or the repository benchmark's OO7 catalog (`db=oo7full`).
struct MonotonicityCase {
  const char* name;
  std::string line;
};

void PrintTo(const MonotonicityCase& c, std::ostream* os) { *os << c.name; }

class SearchMonotonicityTest
    : public ::testing::TestWithParam<MonotonicityCase> {};

TEST_P(SearchMonotonicityTest, NoSingleRuleAblationFindsACheaperPlan) {
  for (const char* rule : testing::kAblatedRules) {
    testing::ExpectAblationNeverCheaper(rule, {GetParam().line}, 0);
  }
}

TEST_P(SearchMonotonicityTest, DuplicatesStayBelowTheMemoSize) {
  SearchStats stats = testing::LineSearchStats(GetParam().line);
  EXPECT_GT(stats.logical_mexprs, 0);
  EXPECT_LE(stats.duplicates, stats.logical_mexprs);
}

std::string Paper(const std::string& text) { return "db=paper100 | " + text; }

std::string Oo7(const std::string& text) { return "db=oo7full | " + text; }

constexpr const char* kOo7JoinSelective =
    "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, CompositePart p IN "
    "CompositeParts WHERE a.partOf == p && a.x > 989 && a.y < 10 && "
    "p.buildDate >= 2;";

INSTANTIATE_TEST_SUITE_P(
    Deck, SearchMonotonicityTest,
    ::testing::Values(
        MonotonicityCase{"Q1", Paper(kQuery1Text)},
        MonotonicityCase{"Q2", Paper(kQuery2Text)},
        MonotonicityCase{"Q3", Paper(kQuery3Text)},
        MonotonicityCase{"Q4", Paper(kQuery4Text)},
        MonotonicityCase{"E12", Paper(kComplexQueryText)},
        MonotonicityCase{"TwoRangeJoin", Paper(kTwoRangeJoin)},
        MonotonicityCase{"ThreeRangeJoin", Paper(kThreeRangeJoin)},
        MonotonicityCase{
            "ThreeRangeStar",
            Paper("SELECT e1.name, e3.age FROM Employee e1 IN Employees, "
                  "Employee e2 IN Employees, Employee e3 IN Employees "
                  "WHERE e1.name == e2.name && e1.name == e3.name;")},
        MonotonicityCase{"Chain3", Paper(JoinChainQueryText(3))},
        MonotonicityCase{"Chain4", Paper(JoinChainQueryText(4))},
        MonotonicityCase{"TwoPath", Paper(JoinChainQueryText(4, 2))},
        MonotonicityCase{"Chain5Path", Paper(JoinChainQueryText(5, 1))},
        MonotonicityCase{"Oo7Join",
                         Oo7("SELECT a.id, p.id FROM AtomicPart a IN "
                             "AtomicParts, CompositePart p IN CompositeParts "
                             "WHERE a.partOf == p && a.x > 100 && a.y < 900 "
                             "&& p.buildDate >= 2;")},
        MonotonicityCase{"Oo7JoinSelective", Oo7(kOo7JoinSelective)},
        MonotonicityCase{"Oo7T1",
                         Oo7("SELECT a.id FROM Module m IN Modules, "
                             "BaseAssembly b IN m.designRoot.subAssemblies, "
                             "CompositePart p IN b.components, "
                             "AtomicPart a IN p.parts "
                             "WHERE a.x > a.y && a.y >= 3;")},
        MonotonicityCase{"Oo7Q5",
                         Oo7("SELECT b.id, p.id FROM BaseAssembly b IN "
                             "BaseAssemblies, CompositePart p IN b.components "
                             "WHERE p.buildDate > b.buildDate && b.id >= 3;")}),
    [](const ::testing::TestParamInfo<MonotonicityCase>& info) {
      return std::string(info.param.name);
    });

TEST(LoadBearingRuleTest, AllRulesKeepTheOptimaThatNeedASelectRule) {
  // Oracle 1 sees only ablations that find a cheaper plan, never a rule
  // whose loss raises an optimum. Each of these optima rises without the
  // rule named above it, so deleting that rule fails here.
  const std::pair<std::string, double> kPins[] = {
      // select-mat-commute: 1.353500128 s without it.
      {"| SELECT d1.floor, d2.floor FROM Department d1 IN Department, "
       "Department d2 IN Department, Employee e3 IN Employees WHERE "
       "d2.floor == d1.floor && e3.dept == d2 && d2.floor == 10 && "
       "d2.floor == 8 && d2.plant.location == \"Dallas\" && e3.age == 63 && "
       "e3.age >= 20;",
       1.035800128},
      // select-unnest-commute: 0.114074630 s without it.
      {"db=oo7 | SELECT o1.title, p2.id FROM Document o1 IN Document, "
       "CompositePart p2 IN CompositeParts, AtomicPart a3 IN p2.parts WHERE "
       "p2.documentation == o1 && o1.title == \"Doc0\" && p2.id == 0 && "
       "p2.buildDate == 9 && a3.x < 71;",
       0.041812130},
      // select-join-pushdown: 646.428 s without it.
      {Oo7(kOo7JoinSelective), 645.048733879},
  };
  for (const auto& [line, cost] : kPins) {
    EXPECT_NEAR(testing::MemoAndDpCost(line).first, cost, 1e-6 * cost)
        << line;
  }
}

}  // namespace
}  // namespace oodb
