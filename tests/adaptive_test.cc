// Drift-driven adaptive re-optimization (Session::Options::adaptive):
// mid-query re-planning at pipeline breakers and drift-triggered
// auto-ANALYZE — plus the CardFeedback extraction the re-plan consumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/cost/selectivity.h"
#include "src/exec/reference.h"
#include "src/trace/card_feedback.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

/// The sort query every breaker test uses: no index serves salary order, so
/// the plan always carries a Sort whose input gets the drift check.
const char kSortQuery[] =
    "SELECT e.name FROM Employee e IN Employees ORDER BY e.salary;";
/// Breaker-free scan used by the post-execution (auto-ANALYZE) tests —
/// drift there is computed from the completed profile, no abort.
const char kScanQuery[] = "SELECT e.name FROM Employee e IN Employees;";

class AdaptiveTest : public ::testing::Test {
 protected:
  AdaptiveTest() : db_(MakePaperCatalog(0.02)) {
    employees_ = CollectionId::Set("Employees", db_.employee);
  }

  void Populate(Session* s) {
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(db_, &s->store(), gen);
    ASSERT_TRUE(r.ok()) << r.status();
  }

  int64_t EmployeesCard() {
    return (*db_.catalog.FindCollection(employees_))->cardinality;
  }

  PaperDb db_;
  CollectionId employees_;
};

// Underestimate: stale statistics say Employees holds one row while the
// store holds ~1000. The Sort input's drift check fires mid-stream, the
// session re-plans with the observed scan cardinality, and the corrected
// plan executes to completion — visible on the attempt trail.
TEST_F(AdaptiveTest, MidQueryReplanCorrectsUnderestimate) {
  Session::Options opts;
  opts.adaptive.replan_drift_threshold = 4.0;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());

  auto r = s.Query(kSortQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->replans, 1);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_EQ(r->attempts[0].status.code(), StatusCode::kPlanDrift);
  EXPECT_FALSE(r->attempts[0].replanned);
  EXPECT_TRUE(r->attempts[1].status.ok());
  EXPECT_TRUE(r->attempts[1].replanned);
  EXPECT_TRUE(r->optimized.stats.replanned);
  ASSERT_NE(r->feedback, nullptr);
  // The feedback carries the store's true scan cardinality, and the
  // re-planned root estimate reflects it instead of the stale catalog.
  auto card = r->feedback->ScanCard(employees_);
  ASSERT_TRUE(card.has_value());
  EXPECT_EQ(static_cast<int64_t>(*card), truth_card);
  EXPECT_GT(r->optimized.plan->logical.card, 100.0);
  // All rows delivered exactly once despite the aborted first attempt.
  EXPECT_EQ(r->exec.rows, truth_card);

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// Overestimate: the catalog believes Employees is 100x its real size. The
// breaker check fires at end-of-stream (the input ran dry far below the
// estimate) and the re-plan brings the estimate down.
TEST_F(AdaptiveTest, MidQueryReplanCorrectsOverestimate) {
  Session::Options opts;
  opts.adaptive.replan_drift_threshold = 4.0;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(
      db_.catalog.SetCardinality(employees_, truth_card * 100).ok());

  auto r = s.Query(kSortQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->replans, 1);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_EQ(r->attempts[0].status.code(), StatusCode::kPlanDrift);
  EXPECT_NE(r->attempts[0].status.message().find("over-estimated"),
            std::string::npos)
      << r->attempts[0].status;
  EXPECT_EQ(r->exec.rows, truth_card);

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// The replan budget is exactly-once by default: once spent, the re-executed
// plan runs with drift checks disarmed, so a statement always terminates —
// even if the feedback-corrected estimates were somehow still off.
TEST_F(AdaptiveTest, ReplanBudgetBoundsAdaptation) {
  Session::Options opts;
  opts.adaptive.replan_drift_threshold = 1.001;  // hair trigger
  opts.adaptive.max_replans = 1;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());

  auto r = s.Query(kSortQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_LE(r->replans, 1);
  EXPECT_EQ(r->exec.rows, truth_card);

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// With the threshold at zero (the default) the adaptive machinery is inert:
// one attempt, no trail, no feedback — the seed execution path.
TEST_F(AdaptiveTest, DisarmedByDefault) {
  Session s(&db_.catalog);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());

  auto r = s.Query(kSortQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->replans, 0);
  ASSERT_EQ(r->attempts.size(), 1u);
  EXPECT_TRUE(r->attempts[0].status.ok());
  EXPECT_EQ(r->feedback, nullptr);
  EXPECT_EQ(r->exec.rows, truth_card);

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// Result parity across batch sizes and parallelism: at dop 1 and dop 4 the
// adaptive path must deliver the reference rows — the re-plan may change
// the plan, never the answer — and a batch-1 run (per-row filter fallback)
// must account exactly like the batch-1024 run (columnar kernels).
TEST_F(AdaptiveTest, ReplanParityAcrossBatchAndDop) {
  const int64_t truth_card = [&] {
    Session plain(&db_.catalog);
    Populate(&plain);
    auto truth = plain.Query(kSortQuery);
    EXPECT_TRUE(truth.ok()) << truth.status();
    return truth.ok() ? truth->exec.rows : -1;
  }();
  ASSERT_GT(truth_card, 0);
  for (int max_dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(max_dop));
    std::vector<ExecStats> runs;
    std::vector<std::vector<Value>> reference;
    for (int batch : {1024, 1}) {
      Session::Options opts;
      opts.exec.batch_size = batch;
      opts.exec.sample_limit = 1 << 22;
      opts.optimizer.max_dop = max_dop;
      opts.adaptive.replan_drift_threshold = 4.0;
      // Populate under truthful statistics (datagen sizes collections from
      // the catalog), then perturb so the adaptive path has drift to see.
      ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
      Session s(&db_.catalog, opts);
      Populate(&s);
      ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());
      auto r = s.Query(kSortQuery);
      ASSERT_TRUE(r.ok()) << r.status() << " batch=" << batch;
      EXPECT_EQ(r->exec.rows, truth_card) << "batch=" << batch;
      if (reference.empty()) {
        auto ref = EvaluateReference(*r->logical, &s.store(), r->ctx);
        ASSERT_TRUE(ref.ok()) << ref.status();
        reference = ref->rows;
      }
      runs.push_back(r->exec);
    }
    testing::ExpectBatchAccountingMatches(runs[0], runs[1], reference,
                                          /*exact_io=*/max_dop == 1);
  }
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// EXPLAIN ANALYZE after a replan: the trail shows the drift abort and the
// feedback re-plan, the header marks the plan, and — the exactly-once
// accounting gate — max_drift over the final profile is exactly 1x (the
// feedback estimate equals the measured count). A double-merged profile
// (aborted attempt + final attempt) would read every actual twice and
// report 2x.
TEST_F(AdaptiveTest, ExplainAnalyzeShowsReplanTrailWithExactlyOnceProfile) {
  Session::Options opts;
  opts.adaptive.replan_drift_threshold = 4.0;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());

  auto out = s.ExplainAnalyze(kSortQuery);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("plan: replanned(feedback)"), std::string::npos)
      << *out;
  EXPECT_NE(out->find("retry: attempt 0 step="), std::string::npos) << *out;
  EXPECT_NE(out->find("status=PlanDrift: sort input under-estimated"),
            std::string::npos)
      << *out;
  EXPECT_NE(out->find("replan=feedback status=OK"), std::string::npos)
      << *out;
  EXPECT_NE(out->find("replan: feedback: "), std::string::npos) << *out;
  EXPECT_NE(out->find("max_drift=1x"), std::string::npos) << *out;

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// Auto-ANALYZE: past the drift threshold the session refreshes catalog
// statistics itself — the stale cardinality snaps back to the measured
// truth and the stats version moves (invalidating every cached plan costed
// under the stale statistics on its next contact).
TEST_F(AdaptiveTest, AutoAnalyzeRefreshesStaleStatistics) {
  Session::Options opts;
  opts.adaptive.analyze_drift_threshold = 4.0;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());
  const uint64_t v0 = db_.catalog.stats_version();

  auto r = s.Query(kScanQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->observed_drift, 4.0);
  EXPECT_TRUE(r->auto_analyzed);
  EXPECT_GT(db_.catalog.stats_version(), v0);
  EXPECT_EQ(EmployeesCard(), truth_card);
}

// The cooldown rate-limits auto-ANALYZE: a second high-drift statement
// inside the cooldown window leaves the (re-perturbed) statistics alone.
TEST_F(AdaptiveTest, AutoAnalyzeHonorsCooldown) {
  Session::Options opts;
  opts.adaptive.analyze_drift_threshold = 4.0;
  opts.adaptive.analyze_cooldown = 1000;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());
  auto first = s.Query(kScanQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->auto_analyzed);
  ASSERT_EQ(EmployeesCard(), truth_card);

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());
  auto second = s.Query(kScanQuery);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(second->observed_drift, 4.0);
  EXPECT_FALSE(second->auto_analyzed);  // within cooldown
  EXPECT_EQ(EmployeesCard(), 1);        // statistics untouched

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// The auto-ANALYZE is charged to the triggering statement's governor: with
// a row budget too small for the statistics scan, the refresh is skipped
// (the query itself still succeeds) and retried on a later statement.
TEST_F(AdaptiveTest, AutoAnalyzeChargedToGovernor) {
  Session::Options opts;
  opts.adaptive.analyze_drift_threshold = 4.0;
  // Budget covers the query's own rows but not the full-store ANALYZE scan
  // (the store holds far more objects than Employees members).
  opts.governor.max_exec_rows = 2000;
  Session s(&db_.catalog, opts);
  Populate(&s);
  const int64_t truth_card = EmployeesCard();
  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, 1).ok());
  ASSERT_GT(s.store().num_objects(), 2000);

  auto r = s.Query(kScanQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->observed_drift, 4.0);
  EXPECT_FALSE(r->auto_analyzed);     // refresh refused by the row budget
  EXPECT_EQ(EmployeesCard(), 1);      // and nothing was mutated

  ASSERT_TRUE(db_.catalog.SetCardinality(employees_, truth_card).ok());
}

// A profile with no recorded actuals — the extreme FAILED-run shape — still
// yields exact scan cardinalities (those come from the store, not the
// profile) and nothing else: extraction contributes exactly what was
// measured, never a ratio with an unmeasured denominator.
TEST_F(AdaptiveTest, ExtractFeedbackFromEmptyProfileRecordsOnlyScans) {
  Session s(&db_.catalog);
  Populate(&s);
  auto r = s.Prepare(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;");
  ASSERT_TRUE(r.ok()) << r.status();
  ExecProfile empty;
  CardFeedback fb =
      ExtractCardFeedback(*r->optimized.plan, empty, r->ctx, s.store());
  auto card = fb.ScanCard(employees_);
  ASSERT_TRUE(card.has_value());
  EXPECT_EQ(static_cast<int64_t>(*card), EmployeesCard());
  EXPECT_NE(fb.Summary().find("0 conjuncts, 0 unnests"),
            std::string::npos)
      << fb.Summary();
}

// A join's observed selectivity feeds the one per-conjunct map, split
// geometrically across the conjuncts that take feedback. The exactly priced
// ref == self conjunct takes none: its estimate is divided out first, so
// the re-plan re-derives the observed join cardinality wherever it places
// each conjunct.
TEST_F(AdaptiveTest, JoinProfileRecordsPerConjunctFeedback) {
  Session s(&db_.catalog);
  Populate(&s);
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  BindingId e = ctx.bindings.AddGet("e", db_.employee);
  BindingId d = ctx.bindings.AddGet("d", db_.department);
  ScalarExprPtr ref = ScalarExpr::RefEq(e, db_.emp_dept, d);
  ScalarExprPtr age = ScalarExpr::AttrCmpInt(e, db_.emp_age, CmpOp::kGe, 30);
  ScalarExprPtr floor = ScalarExpr::AttrEqInt(d, db_.dept_floor, 3);
  auto scan = [](CollectionId coll, BindingId b) {
    PhysicalOp op;
    op.kind = PhysOpKind::kFileScan;
    op.coll = coll;
    op.binding = b;
    return PlanNode::Make(std::move(op), {}, {}, {}, {});
  };
  ScalarExprPtr pred = ScalarExpr::And({ref, age, floor});
  PhysicalOp join;
  join.kind = PhysOpKind::kNestedLoops;
  join.pred = pred;
  PlanNodePtr plan = PlanNode::Make(
      std::move(join),
      {scan(employees_, e), scan(CollectionId::Extent(db_.department), d)},
      {}, {}, {});
  ExecProfile profile;
  profile.Register(plan.get())->rows = 40;
  profile.Register(plan->children[0].get())->rows = 1000;
  profile.Register(plan->children[1].get())->rows = 200;

  CardFeedback fb = ExtractCardFeedback(*plan, profile, ctx, s.store());
  ctx.feedback = &fb;
  SelectivityEstimator replan(&ctx);
  double per = std::sqrt(40.0 / (1000.0 * 200.0) / replan.Estimate(ref));
  EXPECT_FALSE(fb.Selectivity(ref->Hash()).has_value());
  ASSERT_TRUE(fb.Selectivity(age->Hash()).has_value());
  EXPECT_NEAR(*fb.Selectivity(age->Hash()), per, 1e-12);
  EXPECT_NEAR(*fb.Selectivity(floor->Hash()), per, 1e-12);
  EXPECT_NE(fb.Summary().find("2 conjuncts"), std::string::npos)
      << fb.Summary();

  // The re-plan prices the whole join predicate back to the observation.
  EXPECT_NEAR(1000.0 * 200.0 * replan.Estimate(pred), 40.0, 1e-9);
}

// ---------------------------------------------------------------------------
// CardFeedback extraction.

TEST(CardFeedbackTest, RecordAndLookupRoundTrip) {
  CardFeedback fb;
  EXPECT_TRUE(fb.empty());
  CollectionId set = CollectionId::Set("Employees", 3);
  fb.RecordScanCard(set, 123.0);
  fb.RecordSelectivity(42u, 0.25);
  fb.RecordUnnestFanout(3, 9, 2.5);
  EXPECT_FALSE(fb.empty());
  EXPECT_DOUBLE_EQ(*fb.ScanCard(set), 123.0);
  EXPECT_DOUBLE_EQ(*fb.Selectivity(42u), 0.25);
  EXPECT_DOUBLE_EQ(*fb.UnnestFanout(3, 9), 2.5);
  // Distinct collections with the same element type do not collide, and
  // neither do sets vs extents.
  EXPECT_FALSE(fb.ScanCard(CollectionId::Set("Others", 3)).has_value());
  EXPECT_FALSE(fb.ScanCard(CollectionId::Extent(3)).has_value());
  EXPECT_FALSE(fb.Selectivity(43u).has_value());
  EXPECT_EQ(fb.Summary(), "feedback: 1 scans, 1 conjuncts, 1 unnests");
}

TEST(CardFeedbackTest, ClampsDegenerateRatios) {
  CardFeedback fb;
  fb.RecordSelectivity(1u, 0.0);      // zero selectivity would zero cards
  fb.RecordSelectivity(2u, 7.0);      // ratios above 1 clamp down
  fb.RecordUnnestFanout(1, 1, 0.0);
  EXPECT_GT(*fb.Selectivity(1u), 0.0);
  EXPECT_DOUBLE_EQ(*fb.Selectivity(2u), 1.0);
  EXPECT_GT(*fb.UnnestFanout(1, 1), 0.0);
}

}  // namespace
}  // namespace oodb
