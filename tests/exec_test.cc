// Execution-engine tests: optimized plans run against generated data and
// their results are checked against the reference evaluator (as lines of
// the differential deck, tests/harness.h) or brute-force evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "src/common/metrics.h"
#include "src/exec/batch_pool.h"
#include "src/exec/exec_fault.h"
#include "src/exec/tuple.h"
#include "tests/harness.h"

namespace oodb {
namespace {

constexpr double kScale = 0.02;

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : db_(MakePaperCatalog(kScale)), store_(&db_.catalog) {
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(db_, &store_, gen);
    EXPECT_TRUE(r.ok()) << r.status();
    data_ = *std::move(r);
  }

  ExecStats Run(const std::string& text, OptimizerOptions opts = {},
                QueryContext* ctx_out = nullptr,
                OptimizedQuery* plan_out = nullptr) {
    QueryContext local;
    QueryContext& ctx = ctx_out != nullptr ? *ctx_out : local;
    ctx.catalog = &db_.catalog;
    auto logical = ParseAndSimplify(text, &ctx);
    EXPECT_TRUE(logical.ok()) << logical.status();
    Optimizer opt(&db_.catalog, std::move(opts));
    auto planned = opt.Optimize(**logical, &ctx);
    EXPECT_TRUE(planned.ok()) << planned.status();
    if (plan_out != nullptr) *plan_out = *planned;
    auto stats = ExecutePlan(*planned->plan, &store_, &ctx);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return *std::move(stats);
  }

  const ObjectData& Obj(Oid o) {
    Result<const ObjectData*> r = store_.Read(o, /*stream=*/nullptr);
    if (!r.ok()) {
      ADD_FAILURE() << r.status();
      std::abort();
    }
    return **r;
  }

  PaperDb db_;
  ObjectStore store_;
  PaperDataset data_;
};

// The paper queries and a join, counted and checked against the stored
// objects, and each one line of the differential deck (tests/harness.h):
// rows equal the reference evaluator's, at batch 1 with batch 1024's
// accounting.
TEST_F(ExecTest, Query2RowsMatchBruteForce) {
  EXPECT_GT(
      testing::ExpectLine(std::string("batch=1 | ") + kQuery2Text).rows(), 0);
  int expected = 0;
  for (Oid c : data_.cities) {
    Oid mayor = Obj(c).ref(db_.city_mayor);
    if (Obj(mayor).value(db_.person_name).s == "Joe") ++expected;
  }
  ASSERT_GT(expected, 0);
  ExecStats stats = Run(kQuery2Text);
  EXPECT_EQ(stats.rows, expected);
}

TEST_F(ExecTest, Query2PlansAgreeAcrossConfigurations) {
  ExecStats fast = Run(kQuery2Text);
  OptimizerOptions opts;
  opts.disabled_rules = {kImplIndexScan};
  ExecStats slow = Run(kQuery2Text, opts);
  EXPECT_EQ(fast.rows, slow.rows);
  // The index plan does far less simulated I/O than the scan+assembly plan.
  EXPECT_LT(fast.pages_read, slow.pages_read / 4);
  EXPECT_LT(fast.sim_io_s, slow.sim_io_s);
}

TEST_F(ExecTest, Query3ProjectsMayorAges) {
  EXPECT_GT(
      testing::ExpectLine(std::string("batch=1 | ") + kQuery3Text).rows(), 0);
  QueryContext ctx;
  ExecStats stats = Run(kQuery3Text, {}, &ctx);
  ASSERT_GT(stats.rows, 0);
  ASSERT_FALSE(stats.sample_rows.empty());
  // Validate one projected row against the data.
  std::set<std::pair<int64_t, std::string>> expected;
  for (Oid c : data_.cities) {
    Oid mayor = Obj(c).ref(db_.city_mayor);
    if (Obj(mayor).value(db_.person_name).s == "Joe") {
      expected.insert({Obj(mayor).value(db_.person_age).i,
                       Obj(c).value(db_.city_name).s});
    }
  }
  for (const std::vector<Value>& row : stats.sample_rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_TRUE(expected.count({row[0].i, row[1].s}) > 0)
        << row[0].ToString() << ", " << row[1].ToString();
  }
}

TEST_F(ExecTest, Query1RowsMatchBruteForce) {
  EXPECT_GT(
      testing::ExpectLine(std::string("batch=1 | ") + kQuery1Text).rows(), 0);
  auto employees_set =
      store_.CollectionMembers(CollectionId::Set("Employees", db_.employee));
  ASSERT_TRUE(employees_set.ok());
  int expected = 0;
  for (Oid e : **employees_set) {
    Oid d = Obj(e).ref(db_.emp_dept);
    Oid p = Obj(d).ref(db_.dept_plant);
    if (Obj(p).value(db_.plant_location).s == "Dallas") ++expected;
  }
  ASSERT_GT(expected, 0);
  ExecStats stats = Run(kQuery1Text);
  EXPECT_EQ(stats.rows, expected);
}

TEST_F(ExecTest, Query1ProjectedRowsAreCorrect) {
  EXPECT_GT(
      testing::ExpectLine(std::string("batch=7 | ") + kQuery1Text).rows(), 0);
  QueryContext ctx;
  ExecStats stats = Run(kQuery1Text, {}, &ctx);
  ASSERT_FALSE(stats.sample_rows.empty());
  // Each row is (e.name, e.job.name, e.dept.name); cross-check one pattern:
  // the department named in the row must have a Dallas plant.
  std::set<std::string> dallas_depts;
  for (Oid d : data_.departments) {
    Oid p = Obj(d).ref(db_.dept_plant);
    if (Obj(p).value(db_.plant_location).s == "Dallas") {
      dallas_depts.insert(Obj(d).value(db_.dept_name).s);
    }
  }
  for (const std::vector<Value>& row : stats.sample_rows) {
    ASSERT_EQ(row.size(), 3u);
    EXPECT_TRUE(dallas_depts.count(row[2].s) > 0) << row[2].s;
  }
}

TEST_F(ExecTest, Query4VariantMatchesBruteForce) {
  // The scaled catalog has 12 distinct completion times; use one that exists.
  const char* text =
      "SELECT t FROM Task t IN Tasks, Employee e IN t.team_members "
      "WHERE e.name == \"Fred\" && t.time == 5;";
  testing::ExpectLine(std::string("batch=1 | ") + text);
  auto tasks_set = store_.CollectionMembers(CollectionId::Set("Tasks", db_.task));
  ASSERT_TRUE(tasks_set.ok());
  int expected = 0;
  for (Oid t : **tasks_set) {
    if (Obj(t).value(db_.task_time).i != 5) continue;
    for (Oid m : Obj(t).ref_sets[0]) {
      if (Obj(m).value(db_.emp_name).s == "Fred") ++expected;
    }
  }
  ExecStats stats = Run(text);
  EXPECT_EQ(stats.rows, expected);
}

TEST_F(ExecTest, JoinQueryMatchesBruteForce) {
  const char* text =
      "SELECT e.name, d.name "
      "FROM Employee e IN Employees, Department d IN Department "
      "WHERE e.dept == d && d.floor == 3;";
  EXPECT_GT(testing::ExpectLine(std::string("batch=1 | ") + text).rows(),
            0);
  auto employees_set =
      store_.CollectionMembers(CollectionId::Set("Employees", db_.employee));
  ASSERT_TRUE(employees_set.ok());
  int expected = 0;
  for (Oid e : **employees_set) {
    Oid d = Obj(e).ref(db_.emp_dept);
    if (Obj(d).value(db_.dept_floor).i == 3) ++expected;
  }
  ExecStats stats = Run(text);
  EXPECT_EQ(stats.rows, expected);
}

TEST_F(ExecTest, AssemblyElevatorReducesSimTimeVsWindowOne) {
  OptimizerOptions base;
  base.disabled_rules = {kImplIndexScan, kRuleMatToJoin};
  OptimizedQuery planned;
  QueryContext ctx;
  ExecStats windowed = Run(kQuery2Text, base, &ctx, &planned);
  // Same plan shape but window 1 (no elevator batching).
  OptimizerOptions w1 = base;
  w1.cost.assembly_window = 1;
  ExecStats narrow = Run(kQuery2Text, w1);
  EXPECT_EQ(windowed.rows, narrow.rows);
  // The windowed assembly sorts each batch's references by page: fewer
  // random-cost seeks, lower simulated I/O time.
  EXPECT_LE(windowed.sim_io_s, narrow.sim_io_s);
}

TEST_F(ExecTest, SimulatedTimeTracksEstimateShape) {
  // Absolute agreement is not required, but the *ordering* of plans by the
  // optimizer's estimate must match the ordering by simulated execution.
  QueryContext c1, c2;
  OptimizedQuery fast_plan, slow_plan;
  ExecStats fast = Run(kQuery2Text, {}, &c1, &fast_plan);
  OptimizerOptions opts;
  opts.disabled_rules = {kImplIndexScan};
  ExecStats slow = Run(kQuery2Text, opts, &c2, &slow_plan);
  ASSERT_LT(fast_plan.cost.total(), slow_plan.cost.total());
  EXPECT_LT(fast.sim_total_s(), slow.sim_total_s());
}

TEST_F(ExecTest, ReadingUnloadedComponentFails) {
  // Hand-build an invalid plan: Filter on the mayor's name directly over a
  // city scan (mayor never loaded). The executor must fail loudly.
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  BindingId c = ctx.bindings.AddGet("c", db_.city);
  BindingId m = ctx.bindings.AddMat("c.mayor", db_.person, c, db_.city_mayor);

  PhysicalOp scan;
  scan.kind = PhysOpKind::kFileScan;
  scan.coll = CollectionId::Set("Cities", db_.city);
  scan.binding = c;
  LogicalProps props;
  props.scope = BindingSet::Of(c);
  PlanNodePtr scan_node =
      PlanNode::Make(scan, {}, props, PhysProps{BindingSet::Of(c), {}}, Cost{});

  PhysicalOp filter;
  filter.kind = PhysOpKind::kFilter;
  filter.pred = ScalarExpr::AttrEqStr(m, db_.person_name, "Joe");
  PlanNodePtr bad = PlanNode::Make(filter, {scan_node}, props,
                                   PhysProps{BindingSet::Of(c), {}}, Cost{});

  auto stats = ExecutePlan(*bad, &store_, &ctx);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
}

TEST_F(ExecTest, ColdStartResetsAccounting) {
  ExecStats first = Run(kQuery2Text);
  ExecStats second = Run(kQuery2Text);
  // Each run is cold by default: identical accounting.
  EXPECT_EQ(first.pages_read, second.pages_read);
  EXPECT_DOUBLE_EQ(first.sim_io_s, second.sim_io_s);
}

TEST_F(ExecTest, WarmRunUsesBuffer) {
  ExecStats cold = Run(kQuery2Text);
  // Re-run without resetting: the buffer retains pages.
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  auto logical = ParseAndSimplify(kQuery2Text, &ctx);
  ASSERT_TRUE(logical.ok());
  Optimizer opt(&db_.catalog);
  auto planned = opt.Optimize(**logical, &ctx);
  ASSERT_TRUE(planned.ok());
  ExecOptions warm;
  warm.cold_start = false;
  auto stats = ExecutePlan(*planned->plan, &store_, &ctx, warm);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->buffer_hits, cold.buffer_hits);
}

TEST_F(ExecTest, SelectionVectorEdgeCases) {
  TupleBatch batch(/*width=*/2, /*capacity=*/8);

  // Empty batch: nothing active, and Compact is a no-op.
  EXPECT_EQ(batch.active(), 0u);
  batch.Compact();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_FALSE(batch.has_selection());

  // All rows filtered: an empty selection hides every row; compaction
  // leaves an empty batch with the selection dropped.
  for (Oid o = 0; o < 5; ++o) batch.AppendRow().slot(0).ref = 100 + o;
  EXPECT_EQ(batch.active(), 5u);
  batch.MutableSelection();
  batch.SetSelection(0);
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.active(), 0u);
  batch.Compact();
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.size(), 0u);

  // Single survivor in the middle: active views index through the
  // selection, and compaction moves exactly that row to the front.
  batch.Clear();
  for (Oid o = 0; o < 5; ++o) batch.AppendRow().slot(0).ref = 200 + o;
  uint16_t* sel = batch.MutableSelection();
  sel[0] = 3;
  batch.SetSelection(1);
  EXPECT_EQ(batch.active(), 1u);
  EXPECT_EQ(batch.active_index(0), 3u);
  EXPECT_EQ(batch.active_ref(0).slot(0).ref, Oid(203));
  batch.Compact();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.ref(0).slot(0).ref, Oid(203));
}

// Batch 1 takes the per-row filter fallback, batch 1024 the column
// kernels: the differential deck holds both to the reference rows and to
// the same simulated accounting (I/O seconds only without an Assembly,
// whose reads interleave with the scan's batch by batch).
TEST_F(ExecTest, AllRowsFilteredMatchesPerRowFallback) {
  // No employee is that old: every select kernel produces zero survivors.
  EXPECT_EQ(testing::ExpectLine("batch=1 | SELECT e.name FROM Employee e IN "
                                "Employees WHERE e.age > 100000;")
                .rows(),
            0);
}

TEST_F(ExecTest, SingleSurvivorMatchesPerRowFallback) {
  // Pin the predicate to a population value exactly one city has, so the
  // whole two-step kernel chain leaves a single survivor across every batch
  // of the scan.
  std::map<int64_t, int> freq;
  for (Oid c : data_.cities) ++freq[Obj(c).value(db_.city_population).i];
  int64_t unique_pop = -1;
  for (const auto& [pop, n] : freq) {
    if (n == 1) {
      unique_pop = pop;
      break;
    }
  }
  ASSERT_NE(unique_pop, -1) << "dataset has no unique city population";
  std::string text = "SELECT c.name FROM City c IN Cities WHERE c.population >= " +
                     std::to_string(unique_pop) + " && c.population <= " +
                     std::to_string(unique_pop) + ";";
  EXPECT_EQ(testing::ExpectLine("batch=1 | " + text).rows(), 1);
}

TEST_F(ExecTest, AssembledFilterMatchesPerRowFallback) {
  // `e.age >= 60` cannot fuse into the Tasks scan: e is loaded by an
  // Assembly above the team-members unnest, so the filter runs in
  // FilterExec.
  EXPECT_GT(testing::ExpectLine(
                "batch=1 | SELECT t.name FROM Task t IN Tasks, Employee e IN "
                "t.team_members WHERE e.age >= 60 && t.time == 5;")
                .rows(),
            0);
}

TEST_F(ExecTest, StackedFiltersChargeLikeOneFilterInTheSameOrder) {
  // One k-conjunct Filter charges one predicate evaluation per row that
  // reaches each conjunct, so it bills exactly what the stack of
  // single-conjunct Filters with its conjuncts in the same order (lowest
  // first) bills — fused into the scan at batch 1024, per row at batch 1.
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  auto logical = ParseAndSimplify(
      "SELECT e.name FROM Employee e IN Employees "
      "WHERE e.age >= 30 && e.age <= 60 && e.name != \"Fred\";",
      &ctx);
  ASSERT_TRUE(logical.ok()) << logical.status();
  auto planned = Optimizer(&db_.catalog).Optimize(**logical, &ctx);
  ASSERT_TRUE(planned.ok()) << planned.status();
  const PlanNode& project = *planned->plan;
  const PlanNode& filter = *project.children[0];
  ASSERT_EQ(filter.op.kind, PhysOpKind::kFilter) << PrintPlan(project, ctx);
  std::vector<ScalarExprPtr> conjuncts =
      ScalarExpr::SplitConjuncts(filter.op.pred);
  ASSERT_EQ(conjuncts.size(), 3u);
  PlanNodePtr stack = filter.children[0];
  for (const ScalarExprPtr& c : conjuncts) {
    PhysicalOp op = filter.op;
    op.pred = c;
    stack = PlanNode::Make(op, {stack}, filter.logical, filter.delivered,
                           filter.local_cost);
  }
  PlanNodePtr stacked = PlanNode::Make(project.op, {stack}, project.logical,
                                       project.delivered, project.local_cost);
  for (int batch : {1024, 1}) {
    ExecOptions eo;
    eo.batch_size = batch;
    auto one = ExecutePlan(project, &store_, &ctx, eo);
    auto many = ExecutePlan(*stacked, &store_, &ctx, eo);
    ASSERT_TRUE(one.ok()) << one.status();
    ASSERT_TRUE(many.ok()) << many.status();
    EXPECT_GT(one->rows, 0);
    EXPECT_EQ(one->rows, many->rows);
    EXPECT_NEAR(one->sim_cpu_s, many->sim_cpu_s, 1e-9 * one->sim_cpu_s)
        << "batch " << batch;
    EXPECT_EQ(one->sim_io_s, many->sim_io_s);
  }
}

TEST_F(ExecTest, IntFieldAgainstRealConstantMatchesPerRowFallback) {
  // An int column compared with a real constant runs the kernels' double
  // mode: once through the fused scan kernel, once through FilterExec's
  // column kernel above an Assembly.
  EXPECT_GT(testing::ExpectLine("batch=1 | SELECT e.name FROM Employee e IN "
                                "Employees WHERE e.age > 30.5;")
                .rows(),
            0);
  EXPECT_GT(testing::ExpectLine("batch=1 | SELECT t.name FROM Task t IN "
                                "Tasks, Employee e IN t.team_members WHERE "
                                "e.age >= 59.5 && t.time == 5;")
                .rows(),
            0);
}

TEST_F(ExecTest, BatchPoolSteadyStateAllocatesNothing) {
  // The executor's drain batch comes from the process-wide BatchPool. After
  // a warm-up run has parked an arena of this query's shape, repeat
  // executions must be served entirely from the pool: the miss counter
  // (fresh arena allocations) stays flat while hits and recycles climb —
  // the steady-state zero-alloc invariant.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* hits = reg.counter("oodb_batch_pool_hits_total");
  Counter* misses = reg.counter("oodb_batch_pool_misses_total");
  Counter* recycled = reg.counter("oodb_batch_pool_recycled_total");
  Run(kQuery2Text);
  Run(kQuery2Text);
  int64_t hits_before = hits->value();
  int64_t misses_before = misses->value();
  int64_t recycled_before = recycled->value();
  Run(kQuery2Text);
  EXPECT_EQ(misses->value(), misses_before)
      << "steady-state execution allocated a fresh batch arena";
  EXPECT_GT(hits->value(), hits_before);
  EXPECT_GT(recycled->value(), recycled_before);
}

TEST_F(ExecTest, BatchPoolSteadyStateHoldsUnderCancelAndFault) {
  // Error paths must return every in-flight arena to the pool: a cancelled
  // or worker-faulted execution that leaks its drain/queue batches would
  // deplete the pool and show up here as fresh allocations (misses) on
  // repeat runs. Same protocol as the clean-path test: warm up twice, then
  // assert the miss counter stays flat.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* misses = reg.counter("oodb_batch_pool_misses_total");

  // Pre-cancelled governor: the pipeline dies at its first checkpoint.
  auto run_cancelled = [&] {
    GovernorOptions gopts;
    gopts.cancel = std::make_shared<CancelToken>();
    gopts.cancel->RequestCancel();
    QueryGovernor governor(gopts);
    QueryContext ctx;
    ctx.catalog = &db_.catalog;
    auto logical = ParseAndSimplify(kQuery2Text, &ctx);
    ASSERT_TRUE(logical.ok()) << logical.status();
    Optimizer opt(&db_.catalog);
    auto planned = opt.Optimize(**logical, &ctx);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ExecOptions eo;
    eo.governor = &governor;
    auto stats = ExecutePlan(*planned->plan, &store_, &ctx, eo);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
  };
  // Deterministic worker kill at the first root batch boundary.
  auto run_faulted = [&] {
    QueryContext ctx;
    ctx.catalog = &db_.catalog;
    auto logical = ParseAndSimplify(kQuery2Text, &ctx);
    ASSERT_TRUE(logical.ok()) << logical.status();
    Optimizer opt(&db_.catalog);
    auto planned = opt.Optimize(**logical, &ctx);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ExecOptions eo;
    eo.exec_faults.fail_worker = 0;
    eo.exec_faults.fail_after_batches = 1;
    auto stats = ExecutePlan(*planned->plan, &store_, &ctx, eo);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kWorkerFault);
  };

  run_cancelled();
  run_faulted();
  run_cancelled();
  run_faulted();
  int64_t misses_before = misses->value();
  run_cancelled();
  run_faulted();
  EXPECT_EQ(misses->value(), misses_before)
      << "a cancelled or faulted execution leaked a pooled batch arena";
}

// OODB_EXEC_FAULTS grammar: every key's accepted and rejected values.
// Integer keys parse as integers (a seed above 2^53 stays exact, "0.7" is
// not truncated to worker 0) and every key rejects values outside its
// documented range with InvalidArgument.
TEST(ExecFaultSpecTest, ParsesEveryKeyAndRejectsOutOfRange) {
  struct Accepted {
    const char* spec;
    std::function<bool(const ExecFaultPolicy&)> check;
  };
  const Accepted accepted[] = {
      {"", [](const ExecFaultPolicy& p) { return !p.enabled(); }},
      {"seed=18446744073709551615",
       [](const ExecFaultPolicy& p) {
         return p.seed == std::numeric_limits<uint64_t>::max();
       }},
      {"seed=9007199254740993",
       [](const ExecFaultPolicy& p) { return p.seed == 9007199254740993ull; }},
      {"fail_worker=-1", [](const ExecFaultPolicy& p) {
         return p.fail_worker == -1;
       }},
      {"fail_worker=3", [](const ExecFaultPolicy& p) {
         return p.fail_worker == 3;
       }},
      {"fail_after_batches=9000000000",
       [](const ExecFaultPolicy& p) {
         return p.fail_after_batches == 9000000000;
       }},
      {"fail_probability=0", [](const ExecFaultPolicy& p) {
         return p.fail_probability == 0.0;
       }},
      {"fail_probability=0.25", [](const ExecFaultPolicy& p) {
         return p.fail_probability == 0.25;
       }},
      {"fail_attempts=0", [](const ExecFaultPolicy& p) {
         return p.fail_attempts == 0;
       }},
      {"fail_attempts=1000", [](const ExecFaultPolicy& p) {
         return p.fail_attempts == 1000;
       }},
      {"slow_worker=2", [](const ExecFaultPolicy& p) {
         return p.slow_worker == 2;
       }},
      {"slow_ms=60000", [](const ExecFaultPolicy& p) {
         return p.slow_ms == 60000.0;
       }},
      {"slow_sim_s=0.001", [](const ExecFaultPolicy& p) {
         return p.slow_sim_s == 0.001;
       }},
      {"stall_pushes=4", [](const ExecFaultPolicy& p) {
         return p.stall_pushes == 4;
       }},
      {"stall_ms=2.5", [](const ExecFaultPolicy& p) {
         return p.stall_ms == 2.5;
       }},
      {"fail_worker=1,fail_after_batches=2,,fail_attempts=1",
       [](const ExecFaultPolicy& p) {
         return p.fail_worker == 1 && p.fail_after_batches == 2 &&
                p.fail_attempts == 1;
       }},
  };
  for (const Accepted& a : accepted) {
    SCOPED_TRACE(a.spec);
    Result<ExecFaultPolicy> r = ParseExecFaultSpec(a.spec);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(a.check(*r));
  }

  const char* rejected[] = {
      "seed=-1",
      "seed=1.5",
      "seed=18446744073709551616",
      "seed=",
      "fail_worker=0.7",
      "fail_worker=1e30",
      "fail_worker=-2",
      "fail_worker=2147483648",
      "fail_after_batches=0",
      "fail_after_batches=-3",
      "fail_probability=1",
      "fail_probability=1.5",
      "fail_probability=-0.1",
      "fail_probability=nan",
      "fail_attempts=-1",
      "fail_attempts=1.0",
      "slow_worker=-2",
      "slow_ms=-5",
      "slow_ms=60001",
      "slow_ms=inf",
      "slow_sim_s=-1",
      "slow_sim_s=inf",
      "slow_attempts=2",  // unknown key
      "slow_attempts=-1",
      "stall_pushes=-1",
      "stall_pushes=1e3",
      "stall_ms=-0.5",
      "stall_ms=x",
      "fail_worker",
      "bogus=1",
  };
  for (const char* spec : rejected) {
    Result<ExecFaultPolicy> r = ParseExecFaultSpec(spec);
    ASSERT_FALSE(r.ok()) << spec;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

}  // namespace
}  // namespace oodb
