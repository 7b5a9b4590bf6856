// Observability suite (`ctest -L trace`; CI repeats it under TSan for the
// dop=4 ANALYZE run): the optimizer search trace, the metrics registry, and
// EXPLAIN ANALYZE — including the two invariants the layer exists to
// protect: instrumentation never changes results (parity test), and the
// estimate/actual drift it exposes actually shrinks once the offending
// estimator is fed measured statistics (the satellite regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/catalog/analyze.h"
#include "src/common/metrics.h"
#include "src/physical/parallel.h"
#include "src/trace/exec_profile.h"
#include "src/trace/opt_trace.h"
#include "src/workloads/oo7.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

using oodb::testing::StatusOf;

// ---------------------------------------------------------------------------
// OptTrace ring buffer unit tests.

TEST(OptTraceTest, RingKeepsNewestEventsAndCountsAll) {
  OptTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    OptEvent e;
    e.kind = OptEventKind::kRuleFired;
    e.detail = std::to_string(i);
    trace.Record(std::move(e));
  }
  EXPECT_EQ(trace.recorded(), 10);
  EXPECT_EQ(trace.dropped(), 6);
  EXPECT_EQ(trace.count(OptEventKind::kRuleFired), 10);
  std::vector<OptEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].detail, "6");  // oldest retained
  EXPECT_EQ(events[3].detail, "9");  // newest
}

TEST(OptTraceTest, PerKindCountsSurviveOverflow) {
  OptTrace trace(2);
  for (int i = 0; i < 5; ++i) {
    trace.Record({OptEventKind::kBranchPruned, "r", 1, -1, 2.0, "", "cut"});
  }
  trace.Record({OptEventKind::kWinnerReplaced, "", 1, -1, 1.5, "scan", ""});
  EXPECT_EQ(trace.count(OptEventKind::kBranchPruned), 5);
  EXPECT_EQ(trace.count(OptEventKind::kWinnerReplaced), 1);
  EXPECT_EQ(trace.count(OptEventKind::kEnforcerInserted), 0);
  EXPECT_EQ(trace.Events().size(), 2u);
}

TEST(OptTraceTest, TextAndJsonDumps) {
  OptTrace trace;
  trace.Record({OptEventKind::kRuleFired, "get-to-scan", 3, 12, -1.0,
                "file-scan", ""});
  trace.Record({OptEventKind::kWinnerReplaced, "", 3, -1, 41.5, "sort", "winner"});
  std::string text = trace.ToText();
  EXPECT_NE(text.find("optimizer trace: 2 events"), std::string::npos) << text;
  EXPECT_NE(text.find("rule-fired"), std::string::npos);
  EXPECT_NE(text.find("winner-replaced"), std::string::npos);
  EXPECT_NE(text.find("get-to-scan"), std::string::npos);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"rule-fired\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"get-to-scan\""), std::string::npos);
}

TEST(OptTraceTest, JsonEscapesSpecialCharacters) {
  OptTrace trace;
  trace.Record({OptEventKind::kVerifyOutcome, "", -1, -1, -1.0, "",
                "bad \"plan\"\nline2"});
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("bad \\\"plan\\\"\\nline2"), std::string::npos) << json;
}

TEST(OptTraceTest, ClearResetsEverything) {
  OptTrace trace(4);
  trace.Record({OptEventKind::kRuleFired, "r", 0, 0, 0.0, "", "x"});
  trace.Clear();
  EXPECT_EQ(trace.recorded(), 0);
  EXPECT_EQ(trace.dropped(), 0);
  EXPECT_EQ(trace.count(OptEventKind::kRuleFired), 0);
  EXPECT_TRUE(trace.Events().empty());
}

// ---------------------------------------------------------------------------
// Metrics registry unit tests.

TEST(MetricsTest, CountersGaugesAndSnapshot) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.counter("oodb_trace_test_total", "test counter");
  Gauge* g = reg.gauge("oodb_trace_test_gauge", "test gauge");
  int64_t base = c->value();
  c->Increment();
  c->Increment(2);
  EXPECT_EQ(c->value(), base + 3);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  std::string snap = reg.TextSnapshot();
  EXPECT_NE(snap.find("# HELP oodb_trace_test_total test counter"),
            std::string::npos);
  EXPECT_NE(snap.find("# TYPE oodb_trace_test_total counter"),
            std::string::npos);
  EXPECT_NE(snap.find("# TYPE oodb_trace_test_gauge gauge"),
            std::string::npos);
  // Same name returns the same instance.
  EXPECT_EQ(reg.counter("oodb_trace_test_total"), c);
}

TEST(MetricsTest, ResetForTestKeepsCachedPointersValid) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.counter("oodb_trace_reset_total");
  c->Increment(7);
  reg.ResetForTest();
  // The registry zeroes in place: call sites caching the pointer (the
  // static-local metric structs in session/cache/governor/storage) keep
  // writing to live counters.
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  EXPECT_EQ(reg.counter("oodb_trace_reset_total")->value(), 1);
}

// ---------------------------------------------------------------------------
// DriftRatio semantics.

TEST(DriftRatioTest, SymmetricAndClampedAtOneRow) {
  EXPECT_DOUBLE_EQ(DriftRatio(10.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(DriftRatio(1.0, 100), 100.0);   // under-estimate
  EXPECT_DOUBLE_EQ(DriftRatio(100.0, 1), 100.0);   // over-estimate
  // Sub-row estimates and empty results clamp to one row: "estimated 0.3,
  // saw 0" is not a division artifact.
  EXPECT_DOUBLE_EQ(DriftRatio(0.3, 0), 1.0);
  EXPECT_DOUBLE_EQ(DriftRatio(0.0, 0), 1.0);
}

TEST(DriftRatioTest, ZeroEstimatesAndSymmetry) {
  // A hard-zero estimate against real rows clamps to one row, not infinity.
  EXPECT_DOUBLE_EQ(DriftRatio(0.0, 1000), 1000.0);
  EXPECT_DOUBLE_EQ(DriftRatio(0.25, 50), 50.0);
  // Fractional estimates at or above one row divide normally.
  EXPECT_DOUBLE_EQ(DriftRatio(2.5, 5), 2.0);
  // k-fold over and k-fold under read as the same factor.
  EXPECT_DOUBLE_EQ(DriftRatio(7.0, 49), DriftRatio(49.0, 7));
  // A sub-row estimate against one actual row is no drift at all.
  EXPECT_DOUBLE_EQ(DriftRatio(0.01, 1), 1.0);
}

// ---------------------------------------------------------------------------
// Optimizer search trace integration over OO7.

Oo7Options TraceConfig() {
  Oo7Options o;
  o.complex_per_module = 3;
  o.base_per_complex = 4;
  o.components_per_base = 2;
  o.num_composite_parts = 20;
  o.atomic_per_composite = 8;
  o.num_build_dates = 20;
  o.num_doc_titles = 5;
  return o;
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    auto r = MakeOo7(TraceConfig());
    EXPECT_TRUE(r.ok()) << r.status();
    instance_ = std::move(r).value();
  }

  Oo7Db& db() { return *instance_.db; }
  ObjectStore& store() { return *instance_.store; }

  struct Planned {
    QueryContext ctx;
    LogicalExprPtr logical;
    PlanNodePtr plan;
    Cost cost;
  };

  Planned Plan(const std::string& text, OptimizerOptions opts = {}) {
    Planned out;
    out.ctx.catalog = &db().catalog;
    SortSpec order;
    int64_t limit = 0;
    auto logical = ParseAndSimplify(text, &out.ctx, &order, &limit);
    EXPECT_TRUE(logical.ok()) << logical.status() << "\n" << text;
    out.logical = *logical;
    opts.verify_plans = true;
    PhysProps required;
    required.sort = order;
    required.limit = limit;
    Optimizer opt(&db().catalog, std::move(opts));
    auto planned = opt.Optimize(*out.logical, &out.ctx, required);
    EXPECT_TRUE(planned.ok()) << planned.status() << "\n" << text;
    EXPECT_TRUE(planned->stats.verify_error.empty())
        << text << "\n" << planned->stats.verify_error;
    out.plan = planned->plan;
    out.cost = planned->cost;
    return out;
  }

  Result<ExecStats> Analyze(Planned& p, int batch_size = 0) {
    ExecOptions eo;
    eo.sample_limit = 1 << 22;
    eo.batch_size = batch_size;
    eo.analyze = true;
    return ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  }

  static const PlanNode* FindExchange(const PlanNode& node) {
    if (node.op.kind == PhysOpKind::kExchange) return &node;
    for (const PlanNodePtr& c : node.children) {
      if (const PlanNode* e = FindExchange(*c)) return e;
    }
    return nullptr;
  }

  Oo7Instance instance_;
};

TEST_F(TraceTest, SearchTraceRecordsRuleAndWinnerEvents) {
  OptTrace trace;
  OptimizerOptions opts;
  opts.trace_sink = &trace;
  Plan(kOo7QueryTraversal, opts);
  EXPECT_GT(trace.count(OptEventKind::kRuleFired), 0);
  EXPECT_GT(trace.count(OptEventKind::kGroupExplored), 0);
  EXPECT_GT(trace.count(OptEventKind::kWinnerReplaced), 0);
  // verify_plans is forced on by Plan(): exactly one verdict per search.
  EXPECT_EQ(trace.count(OptEventKind::kVerifyOutcome), 1);
  bool saw_ok_verdict = false;
  for (const OptEvent& e : trace.Events()) {
    if (e.kind == OptEventKind::kVerifyOutcome && e.detail == "ok") {
      saw_ok_verdict = true;
    }
  }
  EXPECT_TRUE(saw_ok_verdict) << trace.ToText();
  EXPECT_NE(trace.ToJson().find("\"counts\""), std::string::npos);
}

// MaxDriftRatio over partial profiles — the FAILED/governor-tripped run
// shape, where only a subset of operators recorded actuals before the
// abort. Unprofiled nodes contribute nothing; the worst profiled node wins.
TEST_F(TraceTest, MaxDriftRatioOverPartialProfiles) {
  Planned p = Plan(kOo7QueryTraversal);
  ExecProfile empty;
  EXPECT_DOUBLE_EQ(MaxDriftRatio(*p.plan, empty), 1.0);

  ExecProfile partial;
  const int64_t seen = llround(p.plan->logical.card) * 8 + 8;
  partial.Register(p.plan.get())->rows = seen;
  const double root_drift = DriftRatio(p.plan->logical.card, seen);
  ASSERT_GT(root_drift, 1.0);
  EXPECT_DOUBLE_EQ(MaxDriftRatio(*p.plan, partial), root_drift);

  // Profiling a second, near-exact node must not mask the drifted root.
  ASSERT_FALSE(p.plan->children.empty());
  const PlanNode* child = p.plan->children[0].get();
  const int64_t child_seen =
      std::max<int64_t>(1, llround(child->logical.card));
  partial.Register(child)->rows = child_seen;
  const double expected =
      std::max(root_drift, DriftRatio(child->logical.card, child_seen));
  EXPECT_DOUBLE_EQ(MaxDriftRatio(*p.plan, partial), expected);
}

// The Exchange worker-merge discipline: each worker records into a private
// profile, merged into the consumer's at join. Per-node rows sum across
// workers, so drift is judged against the query's *total* actuals.
TEST_F(TraceTest, WorkerMergeAggregatesRowsBeforeDriftJudgment) {
  Planned p = Plan(kOo7QueryTraversal);
  const PlanNode* root = p.plan.get();
  ExecProfile consumer;
  ExecProfile worker1;
  ExecProfile worker2;
  worker1.Register(root)->rows = 30;
  worker2.Register(root)->rows = 70;
  consumer.MergeFrom(worker1);
  consumer.MergeFrom(worker2);
  ASSERT_NE(consumer.Find(root), nullptr);
  EXPECT_EQ(consumer.Find(root)->rows, 100);
  // Judged per worker, 30 or 70 rows could under- or over-state drift;
  // the merged judgment sees the full 100.
  EXPECT_DOUBLE_EQ(MaxDriftRatio(*p.plan, consumer),
                   DriftRatio(root->logical.card, 100));
}

TEST_F(TraceTest, PruningEmitsBranchPrunedEvents) {
  OptTrace trace;
  OptimizerOptions opts;
  opts.trace_sink = &trace;
  opts.enable_pruning = true;
  Plan(kOo7QueryTraversal, opts);
  EXPECT_GT(trace.count(OptEventKind::kBranchPruned), 0) << trace.ToText();
}

TEST_F(TraceTest, EnforcerInsertionTraced) {
  OptTrace trace;
  OptimizerOptions opts;
  opts.trace_sink = &trace;
  Plan("SELECT b.id, b.buildDate FROM BaseAssembly b IN BaseAssemblies "
       "WHERE b.buildDate >= 3 ORDER BY b.buildDate;",
       opts);
  EXPECT_GT(trace.count(OptEventKind::kEnforcerInserted), 0)
      << trace.ToText();
}

TEST_F(TraceTest, TraceSinkDoesNotChangeThePlan) {
  Planned plain = Plan(kOo7QueryNewerComponents);
  OptTrace trace;
  OptimizerOptions opts;
  opts.trace_sink = &trace;
  Planned traced = Plan(kOo7QueryNewerComponents, opts);
  EXPECT_GT(trace.recorded(), 0);
  EXPECT_EQ(PrintPlan(*plain.plan, plain.ctx, /*with_costs=*/true),
            PrintPlan(*traced.plan, traced.ctx, /*with_costs=*/true));
  EXPECT_DOUBLE_EQ(plain.cost.total(), traced.cost.total());
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE execution profiles.

TEST_F(TraceTest, AnalyzeRendersPerOperatorCounters) {
  Planned p = Plan(Oo7QueryExactMatch(42));
  auto stats = Analyze(p);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_NE(stats->profile, nullptr);
  const OpProfile* root = stats->profile->Find(p.plan.get());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->rows, stats->rows);
  std::string render = RenderAnalyzedPlan(*p.plan, p.ctx, *stats->profile);
  EXPECT_NE(render.find("[est "), std::string::npos) << render;
  EXPECT_NE(render.find("-> act "), std::string::npos) << render;
  EXPECT_NE(render.find("drift "), std::string::npos) << render;
  EXPECT_NE(render.find(", cpu "), std::string::npos) << render;
  EXPECT_NE(render.find(", io "), std::string::npos) << render;
  EXPECT_NE(render.find(", pages "), std::string::npos) << render;
  EXPECT_NE(render.find(", buf "), std::string::npos) << render;
}

TEST_F(TraceTest, IndexScanResidualChargedPerSurvivingRow) {
  // The index scan's residual conjuncts run in selectivity order, each on
  // the matches the earlier ones kept — in the cost model and in the
  // executor alike, so estimated and simulated CPU agree as closely as the
  // selectivity estimates do.
  OptimizerOptions idx;
  idx.disabled_rules = {kImplFileScan};
  Planned p = Plan(
      "SELECT b.id FROM BaseAssembly b IN BaseAssemblies "
      "WHERE b.buildDate == 7 && b.id >= 0 && b.buildDate >= 0;",
      idx);
  const PlanNode* scan = p.plan.get();
  while (scan->op.kind != PhysOpKind::kIndexScan && !scan->children.empty()) {
    scan = scan->children[0].get();
  }
  ASSERT_EQ(scan->op.kind, PhysOpKind::kIndexScan)
      << PrintPlan(*p.plan, p.ctx);
  ASSERT_EQ(ScalarExpr::SplitConjuncts(scan->op.pred).size(), 2u)
      << PrintPlan(*p.plan, p.ctx);
  auto stats = Analyze(p);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const OpProfile* prof = stats->profile->Find(scan);
  ASSERT_NE(prof, nullptr);
  // Both residual conjuncts keep every match (estimated and actual), so
  // the estimate re-priced at the actual match count is exact: index
  // probe, then per match one leaf entry and two residual evaluations.
  const CollectionInfo* coll = *db().catalog.FindCollection(scan->op.coll);
  double est_matches = static_cast<double>(coll->cardinality) /
                       TraceConfig().num_build_dates;
  EXPECT_DOUBLE_EQ(scan->logical.card, est_matches);
  CostModel cm;
  double probe = cm.opts().index_probe_s;
  double per_match = (scan->local_cost.cpu_s - probe) / est_matches;
  EXPECT_NEAR(per_match, cm.opts().index_leaf_s + 2 * cm.opts().cpu_pred_s,
              1e-9 * per_match);
  ASSERT_GT(prof->rows, 0);
  EXPECT_NEAR(prof->cpu_s, probe + per_match * prof->rows,
              1e-9 * prof->cpu_s);
}

TEST_F(TraceTest, FusedFilterChainAnnotated) {
  Planned p = Plan(Oo7QueryByDocTitle("Doc1"));
  auto stats = Analyze(p);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_NE(stats->profile, nullptr);
  std::string render = RenderAnalyzedPlan(*p.plan, p.ctx, *stats->profile);
  EXPECT_NE(render.find("(fused)"), std::string::npos) << render;
}

TEST_F(TraceTest, OrderedOperatorCountersRenderedGolden) {
  // The three order-as-a-property counters, each deterministic for a fixed
  // dataset: TopK renders its max heap occupancy (bounded at k), a partial
  // Sort renders its presorted prefix and flushed runs, and a merging
  // Exchange renders the streams it interleaved.
  Planned topk = Plan(
      "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 0 ORDER BY a.buildDate, a.id LIMIT 5;");
  ASSERT_EQ(CountOps(*topk.plan, PhysOpKind::kTopK), 1)
      << PrintPlan(*topk.plan, topk.ctx);
  auto tstats = Analyze(topk);
  ASSERT_TRUE(tstats.ok()) << tstats.status();
  std::string render =
      RenderAnalyzedPlan(*topk.plan, topk.ctx, *tstats->profile);
  EXPECT_NE(render.find("[limit 5]"), std::string::npos) << render;
  EXPECT_NE(render.find(", heap 5"), std::string::npos) << render;

  // The buildDate index delivers the leading key sorted; only the id
  // tie-break is enforced, run by run — the prefix must not be re-sorted
  // (file-scan rule disabled so the ordered index path wins on this tiny
  // dataset too).
  OptimizerOptions idx;
  idx.disabled_rules = {kImplFileScan};
  Planned partial = Plan(
      "SELECT b.buildDate, b.id FROM BaseAssembly b IN BaseAssemblies "
      "WHERE b.buildDate >= 3 ORDER BY b.buildDate, b.id;",
      idx);
  const PlanNode* psort = nullptr;
  for (const PlanNode* n = partial.plan.get(); n != nullptr;
       n = n->children.empty() ? nullptr : n->children[0].get()) {
    if (n->op.kind == PhysOpKind::kSort) psort = n;
  }
  ASSERT_NE(psort, nullptr) << PrintPlan(*partial.plan, partial.ctx);
  ASSERT_EQ(psort->op.sort_prefix, 1) << PrintPlan(*partial.plan, partial.ctx);
  auto pstats = Analyze(partial);
  ASSERT_TRUE(pstats.ok()) << pstats.status();
  render = RenderAnalyzedPlan(*partial.plan, partial.ctx, *pstats->profile);
  EXPECT_NE(render.find("[presorted 1]"), std::string::npos) << render;
  EXPECT_NE(render.find(", runs "), std::string::npos) << render;

  OptimizerOptions par;
  par.max_dop = 4;
  Planned merged = Plan(
      "SELECT a.buildDate, a.id FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 0 ORDER BY a.buildDate, a.id;",
      par);
  ASSERT_NE(FindExchange(*merged.plan), nullptr)
      << PrintPlan(*merged.plan, merged.ctx);
  auto mstats = Analyze(merged);
  ASSERT_TRUE(mstats.ok()) << mstats.status();
  render = RenderAnalyzedPlan(*merged.plan, merged.ctx, *mstats->profile);
  EXPECT_NE(render.find(", merge 4, runs 73, encoded 0"), std::string::npos)
      << render;
}

TEST_F(TraceTest, MergedSortStreamsNeedNoConsumerEncoding) {
  // perfbench's sort statement at dop 2: every batch the merge reads carries
  // the order words its worker's Sort encoded, so the consumer encodes
  // none. A silent fallback to re-encoding fails here, not only in timing.
  OptimizerOptions par;
  par.max_dop = 2;
  Planned p = Plan(
      "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 800 ORDER BY a.buildDate, a.id;",
      par);
  const PlanNode* ex = FindExchange(*p.plan);
  ASSERT_NE(ex, nullptr) << PrintPlan(*p.plan, p.ctx);
  ASSERT_TRUE(ex->op.merge);
  ASSERT_EQ(ex->op.dop, 2);
  ASSERT_EQ(ex->children[0]->op.kind, PhysOpKind::kSort);
  for (int batch : {0, 7}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    auto stats = Analyze(p, batch);
    ASSERT_TRUE(stats.ok()) << stats.status();
    const OpProfile* prof = stats->profile->Find(ex);
    ASSERT_NE(prof, nullptr);
    EXPECT_GT(prof->merge_runs, 0);
    EXPECT_EQ(prof->merge_encoded, 0);
    std::string render = RenderAnalyzedPlan(*p.plan, p.ctx, *stats->profile);
    EXPECT_NE(render.find(", merge 2, runs "), std::string::npos) << render;
    EXPECT_NE(render.find(", encoded 0"), std::string::npos) << render;
  }
}

// Instrumentation must be observationally free: the analyzed run produces
// exactly the rows and simulated time/I/O of the plain run.
TEST_F(TraceTest, AnalyzeParityWithPlainExecution) {
  Planned p = Plan(kOo7QueryTraversal);
  ExecOptions plain_eo;
  plain_eo.sample_limit = 1 << 22;
  auto plain = ExecutePlan(*p.plan, &store(), &p.ctx, plain_eo);
  ASSERT_TRUE(plain.ok()) << plain.status();
  if (std::getenv("OODB_FORCE_ANALYZE") == nullptr) {
    EXPECT_EQ(plain->profile, nullptr);
  }
  auto analyzed = Analyze(p);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  ASSERT_NE(analyzed->profile, nullptr);
  EXPECT_EQ(analyzed->rows, plain->rows);
  EXPECT_EQ(analyzed->pages_read, plain->pages_read);
  EXPECT_EQ(analyzed->buffer_hits, plain->buffer_hits);
  EXPECT_DOUBLE_EQ(analyzed->sim_io_s, plain->sim_io_s);
  EXPECT_DOUBLE_EQ(analyzed->sim_cpu_s, plain->sim_cpu_s);
  EXPECT_EQ(analyzed->sample_rows, plain->sample_rows);
}

TEST_F(TraceTest, ExchangeAnalyzeMergesWorkerProfiles) {
  OptimizerOptions opts;
  opts.max_dop = 4;
  Planned p = Plan(
      "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;", opts);
  const PlanNode* exchange = FindExchange(*p.plan);
  ASSERT_NE(exchange, nullptr) << PrintPlan(*p.plan, p.ctx);
  auto stats = Analyze(p, /*batch_size=*/64);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_NE(stats->profile, nullptr);
  const std::vector<WorkerUtilization>* workers =
      stats->profile->workers(exchange);
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(static_cast<int>(workers->size()), exchange->op.dop);
  int64_t worker_rows = 0;
  for (const WorkerUtilization& w : *workers) worker_rows += w.rows;
  // Every row crossing the exchange was produced by exactly one worker.
  const OpProfile* below = stats->profile->Find(exchange->children[0].get());
  ASSERT_NE(below, nullptr);
  EXPECT_EQ(worker_rows, below->rows);
  std::string render = RenderAnalyzedPlan(*p.plan, p.ctx, *stats->profile);
  EXPECT_NE(render.find("worker 0:"), std::string::npos) << render;
  // Workers record their operators' I/O on their own streams.
  EXPECT_NE(render.find(", io "), std::string::npos) << render;
}

TEST_F(TraceTest, ExchangeAnalyzeAttributesWorkerIoPerOperator) {
  OptimizerOptions opts;
  opts.max_dop = 4;
  Planned p = Plan(
      "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;", opts);
  const PlanNode* exchange = FindExchange(*p.plan);
  ASSERT_NE(exchange, nullptr) << PrintPlan(*p.plan, p.ctx);
  ASSERT_EQ(exchange->op.dop, 4);
  auto stats = Analyze(p, /*batch_size=*/64);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_NE(stats->profile, nullptr);
  ASSERT_GT(stats->pages_read, 0);
  // Every read happens below the Exchange: its row, which spans the merge
  // of the worker streams, carries the statement's whole I/O, and so does
  // the worker plan's root, summed over the four workers.
  const OpProfile* ex = stats->profile->Find(exchange);
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->pages_read, stats->pages_read);
  EXPECT_DOUBLE_EQ(ex->io_s, stats->sim_io_s);
  const OpProfile* below = stats->profile->Find(exchange->children[0].get());
  ASSERT_NE(below, nullptr);
  EXPECT_EQ(below->pages_read, stats->pages_read);
  EXPECT_EQ(below->buffer_hits, stats->buffer_hits);
  // Every operator row renders io, pages and buf.
  std::string render = RenderAnalyzedPlan(*p.plan, p.ctx, *stats->profile);
  std::istringstream lines(render);
  int rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("-> act ") == std::string::npos) continue;
    ++rows;
    EXPECT_NE(line.find(", io "), std::string::npos) << line;
    EXPECT_NE(line.find(", pages "), std::string::npos) << line;
    EXPECT_NE(line.find(", buf "), std::string::npos) << line;
  }
  EXPECT_GE(rows, 2) << render;
  const std::string pages =
      std::string(", pages ") + std::to_string(stats->pages_read) + ",";
  EXPECT_NE(render.find(pages), std::string::npos) << render;
}

// ---------------------------------------------------------------------------
// The satellite estimator regression: EXPLAIN ANALYZE exposed 16x drift on
// un-indexed equality over a 1000-distinct-value field (est = 10% of 160
// atomic parts = 16; actual 0). After ANALYZE measures the field, the
// equality estimate switches to 1/distinct and the drift collapses.

TEST_F(TraceTest, MeasuredStatsCollapseUnindexedEqualityDrift) {
  const std::string q =
      "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x == 123;";
  Planned before = Plan(q);
  auto before_stats = Analyze(before);
  ASSERT_TRUE(before_stats.ok()) << before_stats.status();
  double before_drift = MaxDriftRatio(*before.plan, *before_stats->profile);
  EXPECT_GE(before_drift, 10.0);

  ASSERT_OK(AnalyzeStore(store(), &db().catalog));
  ASSERT_TRUE(db().catalog.stats_measured());

  store().ResetSimulation();
  Planned after = Plan(q);
  auto after_stats = Analyze(after);
  ASSERT_TRUE(after_stats.ok()) << after_stats.status();
  double after_drift = MaxDriftRatio(*after.plan, *after_stats->profile);
  EXPECT_LE(after_drift, 2.0)
      << RenderAnalyzedPlan(*after.plan, after.ctx, *after_stats->profile);
  EXPECT_LT(after_drift, before_drift);
}

// Declared-only catalogs (no ANALYZE) must keep the paper's 10% default: the
// estimate for the same query is unchanged from the seed.
TEST_F(TraceTest, DeclaredOnlyCatalogKeepsPaperDefaultSelectivity) {
  ASSERT_FALSE(db().catalog.stats_measured());
  Planned p =
      Plan("SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x == 123;");
  // 10% of the 160 atomic parts.
  EXPECT_DOUBLE_EQ(p.plan->logical.card, 16.0);
}

// ---------------------------------------------------------------------------
// Session::ExplainAnalyze end-to-end, including failed runs.

class SessionTraceTest : public ::testing::Test {
 protected:
  SessionTraceTest() : db_(MakePaperCatalog(0.02)) {}

  static Session::Options BaseOptions() { return {}; }

  void Populate(Session* session) {
    GenOptions gen;
    gen.num_plants = 20;
    ASSERT_OK(GeneratePaperData(db_, &session->store(), gen));
  }

  PaperDb db_;
};

TEST_F(SessionTraceTest, ExplainAnalyzeReportsPerOperatorAndSummary) {
  Session session(&db_.catalog);
  Populate(&session);
  auto out = session.ExplainAnalyze(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("[est "), std::string::npos) << *out;
  EXPECT_NE(out->find("-> act "), std::string::npos) << *out;
  EXPECT_NE(out->find("drift "), std::string::npos) << *out;
  EXPECT_NE(out->find("analyzed: rows="), std::string::npos) << *out;
  EXPECT_NE(out->find("max_drift="), std::string::npos) << *out;
  EXPECT_EQ(out->find("exec: FAILED"), std::string::npos) << *out;
}

TEST_F(SessionTraceTest, GovernorTrippedAnalyzeRendersPartialProfile) {
  Session::Options opts;
  opts.governor.max_exec_rows = 1;
  Session session(&db_.catalog, opts);
  Populate(&session);
  auto out = session.ExplainAnalyze(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 0;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("exec: FAILED("), std::string::npos) << *out;
  // The partial profile is still rendered per operator.
  EXPECT_NE(out->find("[est "), std::string::npos) << *out;
  EXPECT_NE(out->find("governor_rows="), std::string::npos) << *out;
}

TEST_F(SessionTraceTest, FaultedAnalyzeRendersPartialProfile) {
  Session session(&db_.catalog);
  Populate(&session);
  FaultPolicy policy;
  policy.fail_every_nth_read = 7;
  session.store().SetFaultPolicy(policy);
  auto out = session.ExplainAnalyze(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 0;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("exec: FAILED("), std::string::npos) << *out;
  EXPECT_NE(out->find("[est "), std::string::npos) << *out;
  session.store().SetFaultPolicy(FaultPolicy{});
}

TEST_F(SessionTraceTest, AnalyzeRendersRetryTrailGolden) {
  // Deterministic transient fault: attempt 0's pipeline root dies at its
  // first batch boundary; attempt 1 runs with attempt number 1 >=
  // fail_attempts and succeeds on the ladder's "serial" rung. The rendered
  // trail is fully deterministic, so match it exactly.
  Session::Options opts;
  opts.exec.exec_faults.fail_worker = 0;
  opts.exec.exec_faults.fail_after_batches = 1;
  opts.exec.exec_faults.fail_attempts = 1;
  opts.retry.max_attempts = 3;
  Session session(&db_.catalog, opts);
  Populate(&session);
  auto out = session.ExplainAnalyze(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("retry: attempt 0 step=planned "
                      "status=WorkerFault: injected worker fault "
                      "(worker 0, batch #1, attempt 0)\n"),
            std::string::npos)
      << *out;
  EXPECT_NE(out->find("retry: attempt 1 step=serial status=OK\n"),
            std::string::npos)
      << *out;
  EXPECT_EQ(out->find("exec: FAILED"), std::string::npos) << *out;
  EXPECT_NE(out->find("analyzed: rows="), std::string::npos) << *out;
}

TEST_F(SessionTraceTest, CleanRunRendersNoRetryTrail) {
  // The trail must not pollute ANALYZE output when nothing went wrong,
  // even with retry armed.
  Session::Options opts;
  opts.retry.max_attempts = 3;
  Session session(&db_.catalog, opts);
  Populate(&session);
  auto out = session.ExplainAnalyze(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->find("retry:"), std::string::npos) << *out;
}

TEST_F(SessionTraceTest, RetriedAnalyzeMergesOnlyTheFinalAttempt) {
  // A transient worker kill at dop 4 ends attempt 0; attempt 1 re-runs the
  // same parallel plan (no degrade) clean. The ladder merges only the final
  // attempt's profile, so every operator and worker row count equals a
  // fault-free run's rather than adding the killed attempt's rows.
  auto analyze = [&](Session::Options opts) {
    opts.optimizer.max_dop = 4;
    opts.exec.batch_size = 16;
    Session session(&db_.catalog, opts);
    Populate(&session);
    auto out = session.ExplainAnalyze(
        "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 0;");
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() ? *out : "";
  };
  auto row_counts = [](const std::string& out) {
    std::vector<std::string> rows;
    const std::regex counted("(-> act|worker [0-9]+: rows) [0-9]+");
    for (std::sregex_iterator it(out.begin(), out.end(), counted), end;
         it != end; ++it) {
      rows.push_back(it->str());
    }
    return rows;
  };
  Session::Options faulted;
  faulted.exec.exec_faults.fail_worker = 1;
  faulted.exec.exec_faults.fail_after_batches = 1;
  faulted.exec.exec_faults.fail_attempts = 1;
  faulted.retry.max_attempts = 2;
  faulted.retry.degrade = false;
  const std::string clean_out = analyze({});
  const std::string faulted_out = analyze(faulted);
  EXPECT_NE(clean_out.find("worker 3: rows"), std::string::npos) << clean_out;
  EXPECT_NE(faulted_out.find("retry: attempt 1 step=planned status=OK\n"),
            std::string::npos)
      << faulted_out;
  EXPECT_EQ(row_counts(faulted_out), row_counts(clean_out));
}

TEST_F(SessionTraceTest, MetricsRegistrySnapshotCoversSubsystems) {
  MetricsRegistry::Global().ResetForTest();
  Session::Options opts;
  opts.optimizer.plan_cache_capacity = 8;
  Session session(&db_.catalog, opts);
  Populate(&session);
  const std::string q =
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;";
  ASSERT_OK(session.Query(q));
  ASSERT_OK(session.Query(q));
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GE(reg.counter("oodb_session_queries_total")->value(), 2);
  EXPECT_GE(reg.counter("oodb_session_prepares_total")->value(), 2);
  EXPECT_GE(reg.counter("oodb_plan_cache_misses_total")->value(), 1);
  EXPECT_GE(reg.counter("oodb_plan_cache_hits_total")->value(), 1);
  // Cold-start runs over a small table miss every page; misses prove the
  // buffer-pool metrics are wired (hits stay 0 here).
  EXPECT_GE(reg.counter("oodb_buffer_pool_misses_total")->value(), 1);
  std::string snap = reg.TextSnapshot();
  EXPECT_NE(snap.find("oodb_session_queries_total"), std::string::npos);
  EXPECT_NE(snap.find("oodb_plan_cache_hits_total"), std::string::npos);
  EXPECT_NE(snap.find("oodb_buffer_pool_misses_total"), std::string::npos);
}

}  // namespace
}  // namespace oodb
