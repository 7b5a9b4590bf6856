// Session facade + ANALYZE statistics collection.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace oodb {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : db_(MakePaperCatalog(0.02)), session_(&db_.catalog) {
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(db_, &session_.store(), gen);
    EXPECT_TRUE(r.ok()) << r.status();
  }

  PaperDb db_;
  Session session_;
};

TEST_F(SessionTest, QueryEndToEnd) {
  auto r = session_.Query(
      "SELECT c.name FROM City c IN Cities WHERE c.mayor.name == \"Joe\";");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->exec.rows, 0);
  EXPECT_EQ(static_cast<int64_t>(r->rows().size()), r->exec.rows);
  EXPECT_NE(r->PlanText().find("Index Scan"), std::string::npos);
}

TEST_F(SessionTest, ExplainDoesNotExecute) {
  auto before = session_.store().stream().reads();
  auto plan = session_.Explain(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("cost"), std::string::npos);
  EXPECT_EQ(session_.store().stream().reads(), before);
}

TEST_F(SessionTest, QueryErrorsSurface) {
  EXPECT_FALSE(session_.Query("SELECT nonsense").ok());
  EXPECT_FALSE(session_.Query("SELECT x FROM Widget x IN Widgets;").ok());
}

TEST_F(SessionTest, OptimizerOptionsApply) {
  Session::Options opts;
  opts.optimizer.disabled_rules = {kImplIndexScan};
  Session ablated(&db_.catalog, opts);
  GenOptions gen;
  gen.num_plants = 20;
  ASSERT_TRUE(GeneratePaperData(db_, &ablated.store(), gen).ok());
  auto r = ablated.Query(
      "SELECT c.name FROM City c IN Cities WHERE c.mayor.name == \"Joe\";");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->PlanText().find("Index Scan"), std::string::npos);
}

// --- ANALYZE ---

class AnalyzeTest : public SessionTest {};

TEST_F(AnalyzeTest, CardinalitiesBecomeExact) {
  // Perturb a statistic, then re-analyze.
  CollectionId cities = CollectionId::Set("Cities", db_.city);
  int64_t truth = (*db_.catalog.FindCollection(cities))->cardinality;
  ASSERT_TRUE(db_.catalog.SetCardinality(cities, 7).ok());
  ASSERT_TRUE(session_.Analyze().ok());
  EXPECT_EQ((*db_.catalog.FindCollection(cities))->cardinality, truth);
}

TEST_F(AnalyzeTest, FieldRangesMeasured) {
  ASSERT_TRUE(session_.Analyze().ok());
  const FieldDef& time =
      db_.catalog.schema().type(db_.task).field(db_.task_time);
  // Datagen assigns times 1..distinct.
  EXPECT_EQ(time.min_value, 1);
  EXPECT_GT(time.max_value, 1);
  EXPECT_EQ(time.distinct_values, time.max_value);
}

TEST_F(AnalyzeTest, DistinctCountsMeasured) {
  ASSERT_TRUE(session_.Analyze().ok());
  const FieldDef& name =
      db_.catalog.schema().type(db_.employee).field(db_.emp_name);
  // Class-based names: ~10 distinct at scale 0.02 over 4000 employees.
  EXPECT_GT(name.distinct_values, 1);
  EXPECT_LT(name.distinct_values, 50);
}

TEST_F(AnalyzeTest, SetFanoutMeasured) {
  ASSERT_TRUE(session_.Analyze().ok());
  const FieldDef& members =
      db_.catalog.schema().type(db_.task).field(db_.task_team_members);
  EXPECT_DOUBLE_EQ(members.avg_set_card, 5.0);
}

TEST_F(AnalyzeTest, IndexDistinctKeysMeasured) {
  // Perturb, re-analyze, verify measured key count.
  ASSERT_TRUE(session_.Analyze().ok());
  auto idx = db_.catalog.FindIndex(kIdxTasksTime);
  ASSERT_TRUE(idx.ok());
  auto stored = session_.store().FindIndex(kIdxTasksTime);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*idx)->distinct_keys, (*stored)->num_keys());
}

TEST_F(AnalyzeTest, EstimatesMatchRealityAfterAnalyze) {
  // After ANALYZE, the optimizer's match estimate for an indexed equality
  // equals the true average bucket size (class-based data is uniform).
  ASSERT_TRUE(session_.Analyze().ok());
  auto r = session_.Query(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;");
  ASSERT_TRUE(r.ok()) << r.status();
  double estimated = r->optimized.plan->logical.card;
  EXPECT_NEAR(estimated, static_cast<double>(r->exec.rows),
              estimated * 0.25 + 1);
}

// A governed ANALYZE charges the statistics scan (one row per stored
// object) *before* mutating anything: when the budget cannot cover it, the
// catalog is left entirely untouched — no bump, no cardinality change.
TEST_F(AnalyzeTest, GovernedAnalyzeChargesBeforeMutating) {
  CollectionId cities = CollectionId::Set("Cities", db_.city);
  int64_t truth = (*db_.catalog.FindCollection(cities))->cardinality;
  ASSERT_TRUE(db_.catalog.SetCardinality(cities, 7).ok());
  const uint64_t version = db_.catalog.stats_version();

  GovernorOptions tight;
  tight.max_exec_rows = session_.store().num_objects() - 1;
  QueryGovernor governor(tight);
  AnalyzeOptions opts;
  opts.governor = &governor;
  Status st = AnalyzeStore(session_.store(), &db_.catalog, opts);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(db_.catalog.stats_version(), version);
  EXPECT_EQ((*db_.catalog.FindCollection(cities))->cardinality, 7);

  // With an ample budget the refresh goes through and the scan was charged.
  GovernorOptions ample;
  ample.max_exec_rows = session_.store().num_objects() * 2;
  QueryGovernor ok_governor(ample);
  opts.governor = &ok_governor;
  ASSERT_TRUE(AnalyzeStore(session_.store(), &db_.catalog, opts).ok());
  EXPECT_GE(db_.catalog.stats_version(), version + 2);
  EXPECT_EQ((*db_.catalog.FindCollection(cities))->cardinality, truth);
  EXPECT_EQ(ok_governor.stats().rows_charged,
            session_.store().num_objects());
}

TEST_F(AnalyzeTest, SelectiveOptions) {
  CollectionId cities = CollectionId::Set("Cities", db_.city);
  ASSERT_TRUE(db_.catalog.SetCardinality(cities, 7).ok());
  AnalyzeOptions opts;
  opts.cardinalities = false;
  ASSERT_TRUE(session_.Analyze(opts).ok());
  // Cardinalities untouched when disabled.
  EXPECT_EQ((*db_.catalog.FindCollection(cities))->cardinality, 7);
  ASSERT_TRUE(session_.Analyze().ok());
}

}  // namespace
}  // namespace oodb
