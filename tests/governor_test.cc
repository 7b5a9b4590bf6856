// QueryGovernor: deadlines, budgets, cancellation, and graceful degradation
// to the greedy baseline planner.
#include <gtest/gtest.h>

#include <thread>

#include "src/baseline/greedy.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

constexpr const char* kJoeQuery =
    "SELECT c.name FROM City c IN Cities WHERE c.mayor.name == \"Joe\";";
constexpr const char* kAllEmployeesQuery =
    "SELECT e.name FROM Employee e IN Employees;";

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() : db_(MakePaperCatalog(0.02)) {}

  // Heap-allocated: ObjectStore wires internal pointers (buffer pool ->
  // timing options) at construction and must never be moved.
  std::unique_ptr<Session> MakeSession(Session::Options opts = {}) {
    auto s = std::make_unique<Session>(&db_.catalog, std::move(opts));
    GenOptions gen;
    gen.num_plants = 20;
    EXPECT_TRUE(GeneratePaperData(db_, &s->store(), gen).ok());
    return s;
  }

  PaperDb db_;
};

TEST_F(GovernorTest, UngovernedByDefault) {
  std::unique_ptr<Session> sp = MakeSession();
  Session& s = *sp;
  auto r = s.Query(kJoeQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->optimized.stats.degraded);
  EXPECT_EQ(r->optimized.stats.governor.trips(), 0);
  EXPECT_EQ(r->exec.governor.trips(), 0);
}

TEST_F(GovernorTest, GovernedQueryWithinBudgetsSucceeds) {
  Session::Options opts;
  opts.governor.deadline_ms = 60000.0;
  opts.governor.max_memo_mexprs = 100000;
  opts.governor.max_exec_rows = 1000000;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Query(kJoeQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->optimized.stats.degraded);
  EXPECT_EQ(r->exec.governor.trips(), 0);
  EXPECT_EQ(r->exec.governor.rows_charged, r->exec.rows);
}

TEST_F(GovernorTest, DeadlineTripsMidSearch) {
  Session::Options opts;
  opts.governor.deadline_ms = 1e-7;  // expires before the first checkpoint
  opts.governor.degrade_to_greedy = false;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Prepare(kJoeQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status();
}

TEST_F(GovernorTest, MemoBudgetTripErrorsWhenDegradationOff) {
  Session::Options opts;
  opts.governor.max_memo_mexprs = 1;
  opts.governor.degrade_to_greedy = false;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Prepare(kJoeQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted) << r.status();
}

TEST_F(GovernorTest, MemoBudgetDegradesToGreedyIdenticalPlan) {
  Session::Options opts;
  opts.governor.max_memo_mexprs = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Prepare(kJoeQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->optimized.stats.degraded);
  EXPECT_FALSE(r->optimized.stats.degrade_reason.empty());
  EXPECT_GE(r->optimized.stats.governor.budget_trips, 1);

  // The fallback plan is exactly what the greedy baseline planner produces
  // when invoked directly on the same query and catalog.
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  auto logical = ParseAndSimplify(kJoeQuery, &ctx);
  ASSERT_TRUE(logical.ok()) << logical.status();
  GreedyOptimizer greedy(&db_.catalog, opts.optimizer.cost);
  auto direct = greedy.Optimize(**logical, &ctx);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(r->PlanText(), PrintPlan(*direct->plan, ctx));
}

TEST_F(GovernorTest, DegradedPlanStillExecutes) {
  Session::Options opts;
  opts.governor.max_memo_mexprs = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Query(kJoeQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->optimized.stats.degraded);
  EXPECT_GT(r->exec.rows, 0);
}

TEST_F(GovernorTest, DegradedPlanNeverCached) {
  Session::Options opts;
  opts.governor.max_memo_mexprs = 1;
  opts.optimizer.plan_cache_capacity = 16;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto first = s.Prepare(kJoeQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->optimized.stats.degraded);
  ASSERT_NE(s.plan_cache(), nullptr);
  EXPECT_EQ(s.plan_cache()->stats().entries, 0);
  // A repeat is re-degraded, never served from the cache.
  auto second = s.Prepare(kJoeQuery);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->optimized.stats.degraded);
  EXPECT_FALSE(second->optimized.stats.plan_cached);
  EXPECT_EQ(s.plan_cache()->stats().hits, 0);
}

TEST_F(GovernorTest, JoinQueryBudgetTripSurfacesWhenGreedyCannotHelp) {
  // The greedy baseline rejects explicit joins, so degradation falls back
  // to reporting the original governor trip.
  Session::Options opts;
  opts.governor.max_memo_mexprs = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Prepare(
      "SELECT e.name FROM Employee e IN Employees, Task t IN Tasks "
      "WHERE e.age == t.time;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted) << r.status();
}

/// The memo size a memo m-expr budget trip reports ("exhausted: N > ...").
int64_t TrippedMemoSize(const Status& status) {
  const std::string& msg = status.message();
  const size_t at = msg.find("exhausted: ");
  if (at == std::string::npos) return -1;
  return std::stoll(msg.substr(at + 11));
}

TEST_F(GovernorTest, MemoBudgetStopsTheJoinOrderRuleMidFiring) {
  // Ten vertices (five ranges, five paths) sharing no conjunct: one firing
  // of the join-order rule builds their whole subset lattice, about 74,000
  // m-exprs. Twelve chained ranges: the rule enumerates the ten-range
  // prefix, and the wider groups get only mirrored joins. Either search
  // stops between two subset groups once the memo passes the budget.
  const std::string queries[] = {
      "SELECT c5.population FROM Country n1 IN Country, City c2 IN Cities, "
      "Country n3 IN Country, Country n4 IN Country, City c5 IN Cities "
      "WHERE n1.president.name == \"Joe\" && c2.mayor.name == \"Joe\" && "
      "n3.president.name == \"Joe\" && n4.president.name == \"Joe\" && "
      "c5.mayor.name == \"Joe\";",
      JoinChainQueryText(12),
  };
  Session::Options opts;
  opts.governor.max_memo_mexprs = 2000;
  opts.governor.degrade_to_greedy = false;
  std::unique_ptr<Session> sp = MakeSession(opts);
  for (const std::string& q : queries) {
    SCOPED_TRACE(q);
    auto r = sp->Prepare(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted) << r.status();
    const int64_t size = TrippedMemoSize(r.status());
    EXPECT_GT(size, 2000) << r.status();
    EXPECT_LT(size, 10000) << r.status();
  }
}

TEST_F(GovernorTest, ExecutorRowBudgetTripsMidPipeline) {
  Session::Options opts;
  opts.governor.max_exec_rows = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Query(kAllEmployeesQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted) << r.status();
}

TEST_F(GovernorTest, ExecutorPageBudgetTripsMidPipeline) {
  Session::Options opts;
  opts.governor.max_exec_pages = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Query(kAllEmployeesQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted) << r.status();
}

TEST_F(GovernorTest, TrackedMemoryBudgetTripsInBlockingOperator) {
  Session::Options opts;
  opts.governor.max_tracked_bytes = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  // Forces a sort enforcer, whose Open() buffers the whole input.
  auto r = s.Query(
      "SELECT e.name FROM Employee e IN Employees ORDER BY e.age;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted) << r.status();
}

TEST_F(GovernorTest, CancellationObservedDuringSearch) {
  Session::Options opts;
  opts.governor.cancel = std::make_shared<CancelToken>();
  opts.governor.cancel->RequestCancel();
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Prepare(kJoeQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status();
}

TEST_F(GovernorTest, CancellationNeverDegrades) {
  Session::Options opts;
  opts.governor.cancel = std::make_shared<CancelToken>();
  opts.governor.cancel->RequestCancel();
  opts.governor.degrade_to_greedy = true;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto r = s.Prepare(kJoeQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status();
}

TEST_F(GovernorTest, CrossThreadCancellationBetweenOperators) {
  // The token is flipped from another thread; the executing query observes
  // it at its next per-Next() checkpoint. (Run under TSan in CI.)
  auto token = std::make_shared<CancelToken>();
  Session::Options opts;
  opts.governor.cancel = token;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;

  auto ok = s.Query(kJoeQuery);  // not yet cancelled: runs normally
  ASSERT_TRUE(ok.ok()) << ok.status();

  std::thread canceller([token] { token->RequestCancel(); });
  canceller.join();
  auto r = s.Query(kJoeQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status();
}

TEST_F(GovernorTest, ExplainAnnotatesDegradedPlan) {
  Session::Options opts;
  opts.governor.max_memo_mexprs = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  auto text = s.Explain(kJoeQuery);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("plan: degraded(greedy, reason="), std::string::npos)
      << *text;
  EXPECT_NE(text->find("governor: trips="), std::string::npos) << *text;
}

TEST_F(GovernorTest, SessionSurvivesTripsAndRecovers) {
  Session::Options opts;
  opts.governor.max_exec_rows = 1;
  std::unique_ptr<Session> sp = MakeSession(opts);
  Session& s = *sp;
  ASSERT_FALSE(s.Query(kAllEmployeesQuery).ok());
  // Relax the budget: the next statement arms a fresh governor and works.
  s.options().governor.max_exec_rows = 1000000;
  auto r = s.Query(kAllEmployeesQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->exec.rows, 1);
}

// --- ObjectStore dangling-reference hardening (regression) ---

TEST_F(GovernorTest, ReadOfDanglingOidIsErrorNotUndefinedBehavior) {
  std::unique_ptr<Session> sp = MakeSession();
  Session& s = *sp;
  ObjectStore& store = s.store();
  Oid bogus = store.num_objects() + 1000;
  auto read = store.Read(bogus, &store.stream());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  auto peek = store.Peek(bogus);
  ASSERT_FALSE(peek.ok());
  EXPECT_EQ(store.TypeOf(bogus), kInvalidType);
  EXPECT_EQ(store.TypeOf(kInvalidOid), kInvalidType);
}

}  // namespace
}  // namespace oodb
