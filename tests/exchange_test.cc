// Exchange / batch-execution parity suite (`ctest -L parallel`; CI repeats
// it under TSan). The correctness oracle is the reference evaluator: every
// query of the differential harness's dop-2/4 slice (tests/harness.h) must
// produce the reference rows tuple-at-a-time (batch 1), batched (batch
// 1024), and parallel, including under injected storage faults and
// governor trips — a worker failure must drain the whole pipeline and
// surface as one typed error, never a crash, a hang, or a short result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/metrics.h"
#include "src/exec/worker_pool.h"
#include "src/physical/parallel.h"
#include "src/workloads/oo7.h"
#include "tests/harness.h"

namespace oodb {
namespace {

using testing::FindMergeExchange;
using testing::RowSeq;
using testing::SortedRows;

class ExchangeTest : public testing::Oo7ParallelTest {
 protected:
  static Result<ExecStats> Exec(Planned& p, int batch_size,
                                QueryGovernor* governor = nullptr) {
    ExecOptions eo;
    eo.sample_limit = 1 << 22;
    eo.batch_size = batch_size;
    eo.governor = governor;
    return ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  }

  static int CountExchanges(const PlanNode& plan) {
    std::vector<PhysOpKind> kinds = testing::PlanKinds(plan);
    return static_cast<int>(
        std::count(kinds.begin(), kinds.end(), PhysOpKind::kExchange));
  }

  static int MaxDopOf(const PlanNode& node) {
    int dop = node.op.kind == PhysOpKind::kExchange ? node.op.dop : 1;
    for (const PlanNodePtr& c : node.children) {
      dop = std::max(dop, MaxDopOf(*c));
    }
    return dop;
  }
};

TEST_F(ExchangeTest, DefaultPlansStaySerial) {
  Planned p = Plan(kOo7QueryTraversal);  // max_dop defaults to 1
  EXPECT_EQ(CountExchanges(*p.plan), 0);
}

TEST_F(ExchangeTest, PlantsExchangeWhenProfitable) {
  testing::LineRun r = testing::ExpectLine(
      "db=oo7 dop=4 | SELECT a.id FROM AtomicPart a IN AtomicParts "
      "WHERE a.x > a.y;");
  ASSERT_EQ(CountExchanges(*r.plan), 1);
  int dop = MaxDopOf(*r.plan);
  EXPECT_GE(dop, 2);
  EXPECT_LE(dop, 4);
  ASSERT_GT(r.rows(), 0);
  EXPECT_EQ(r.stats.dop, dop);
  EXPECT_GT(r.stats.batch_size, 1);
}

TEST_F(ExchangeTest, OrderedDeliveryStaysCorrectUnderParallelism) {
  // An ordered root parallelizes only via the merging Exchange (workers
  // sort their contiguous slices, the consumer merges) — or stays serial;
  // either way the delivered order survives.
  EXPECT_GT(testing::ExpectLine("db=oo7 dop=4 | SELECT a.id, a.x FROM "
                                "AtomicPart a IN AtomicParts WHERE a.x > 100 "
                                "ORDER BY a.x;")
                .rows(),
            0);
}

TEST_P(ExchangeTest, BatchAndDopConfigurationsMatchReference) {
  testing::ExpectSeed(testing::Slice::kParallel, GetParam());
}

TEST_P(ExchangeTest, OrderedLimitSweepMatchesReferenceSequence) {
  testing::ExpectSeed(testing::Slice::kParallel, GetParam(), /*ordered=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExchangeTest, ::testing::Range(0, 40));

TEST_F(ExchangeTest, MergeExchangeReproducesStableSortExactly) {
  // Non-unique key, so tie order is the contract: a merging Exchange over
  // contiguous partitions, ties broken toward the lower partition index,
  // must reproduce the stable sort of the scan order exactly (the deck's
  // exact-sequence check for one file-scanned range).
  for (const char* batch : {"16", "1024"}) {
    testing::LineRun r = testing::ExpectLine(
        std::string("db=oo7 dop=4 batch=") + batch +
        " | SELECT a.buildDate, a.id FROM AtomicPart a IN AtomicParts "
        "WHERE a.x >= 0 ORDER BY a.buildDate;");
    EXPECT_NE(FindMergeExchange(*r.plan), nullptr) << batch;
    EXPECT_GT(r.rows(), 4);
  }
}

TEST_F(ExchangeTest, TopKUnderDopMatchesSerialPrefix) {
  // ORDER BY ... LIMIT under parallelism: workers top-k their slices, the
  // merging Exchange truncates at the global bound — the delivered prefix
  // must equal the serial bounded heap's exactly, row for row.
  const std::string query =
      " | SELECT a.x, a.id FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 0 ORDER BY a.x, a.id LIMIT 10;";
  EXPECT_EQ(CountOps(*testing::ExpectLine("db=oo7" + query).plan,
                     PhysOpKind::kTopK),
            1);
  for (const char* batch : {"16", "1024"}) {
    EXPECT_EQ(
        testing::ExpectLine(std::string("db=oo7 dop=4 batch=") + batch + query)
            .rows(),
        10);
  }
}

TEST_F(ExchangeTest, TopKFastPathsMatchOracle) {
  // exec.topk == false switches TopKExec to buffer-all / stable-sort /
  // truncate. The bounded heap and its columnar pre-screen (batch 1024, and
  // one row at a time at batch 1) must deliver that oracle's sequence: the
  // stable sort of the scan order, with equal accounting across batches
  // (a heap TopK, so the deck line compares them).
  const std::string query =
      " | SELECT a.x, a.id FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 0 ORDER BY a.x, a.id LIMIT 25;";
  for (const char* config : {"db=oo7 batch=1", "db=oo7 topk=0 batch=1"}) {
    testing::LineRun r = testing::ExpectLine(config + query);
    EXPECT_EQ(CountOps(*r.plan, PhysOpKind::kTopK), 1) << config;
    ASSERT_EQ(r.plan->op.kind, PhysOpKind::kTopK) << config;
    EXPECT_EQ(r.plan->op.sort_prefix, 0) << config;
    EXPECT_EQ(r.rows(), 25) << config;
  }
}

/// `plan` with its merging Exchange run by `dop` workers; the nodes off the
/// path to it are shared.
PlanNodePtr WithMergeDop(const PlanNodePtr& plan, int dop) {
  auto copy = std::make_shared<PlanNode>(*plan);
  if (copy->op.kind == PhysOpKind::kExchange && copy->op.merge) {
    copy->op.dop = dop;
    return copy;
  }
  for (PlanNodePtr& c : copy->children) c = WithMergeDop(c, dop);
  return copy;
}

TEST_F(ExchangeTest, RunMergeKeepsTheStableSortSequence) {
  // The merge copies runs: the longest prefix of the best stream's batch
  // that precedes the runner-up's head, ties to the lower partition. Ten
  // build dates over 200 parts give long equal-key runs that straddle
  // partitions and batches; the DESC query's LIMIT cuts inside a run. Each
  // is held to the exact reference sequence at every batch size and dop,
  // with every key word taken from the workers' Sort/TopK (encoded 0).
  const std::string by_date =
      "SELECT a.buildDate, a.id FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 0 ORDER BY a.buildDate;";
  const std::string desc_limit =
      "SELECT a.buildDate, a.x, a.id FROM AtomicPart a IN AtomicParts "
      "WHERE a.x >= 0 ORDER BY a.buildDate DESC, a.x LIMIT 37;";
  for (const std::string& text : {by_date, desc_limit}) {
    SCOPED_TRACE(text);
    Planned par = Plan(text, /*max_dop=*/4);
    ASSERT_NE(FindMergeExchange(*par.plan), nullptr)
        << PrintPlan(*par.plan, par.ctx);
    std::vector<std::string> expect =
        testing::ReferenceSequence("db=oo7 | " + text);
    ASSERT_GT(expect.size(), 30u);
    const PlanNodePtr planted = par.plan;
    for (int dop = 2; dop <= 4; ++dop) {
      par.plan = WithMergeDop(planted, dop);
      const PlanNode* merge = FindMergeExchange(*par.plan);
      for (int batch : {1, 7, 1024}) {
        SCOPED_TRACE("dop=" + std::to_string(dop) +
                     " batch=" + std::to_string(batch));
        ExecOptions eo;
        eo.sample_limit = 1 << 22;
        eo.batch_size = batch;
        eo.analyze = true;
        auto stats = ExecutePlan(*par.plan, &store(), &par.ctx, eo);
        ASSERT_TRUE(stats.ok()) << stats.status();
        EXPECT_EQ(RowSeq(stats->sample_rows), expect)
            << "plan:\n" << PrintPlan(*par.plan, par.ctx);
        const OpProfile* prof = stats->profile->Find(merge);
        ASSERT_NE(prof, nullptr);
        EXPECT_EQ(prof->merge_streams, dop);
        EXPECT_EQ(prof->merge_encoded, 0);
        EXPECT_GT(prof->merge_runs, 0);
        EXPECT_LE(prof->merge_runs, static_cast<int64_t>(expect.size()));
        if (text == by_date && batch == 1024) {
          // Equal dates run together: far fewer copies than rows.
          EXPECT_LT(prof->merge_runs * 4,
                    static_cast<int64_t>(expect.size()));
        }
      }
    }
  }
}

TEST_F(ExchangeTest, SelectionCrossingExchangePartitionsStaysExact) {
  // The filter reads an Assembly-loaded binding, so it cannot fuse into the
  // scan: FilterExec marks survivors with a selection vector, and each
  // worker's batch is physically compacted only at the Exchange push. Three
  // selectivities stress that boundary — dense survivors, sparse survivors,
  // and an all-rows-dead batch stream — at batch 16, where selections
  // straddle many pushes, and at batch 1 against batch 1024's accounting,
  // serially (I/O seconds included) and at dop 4.
  for (const char* floor : {"2", "9", "99"}) {
    const std::string query =
        std::string(" | SELECT a.id FROM AtomicPart a IN AtomicParts "
                    "WHERE a.partOf.buildDate >= ") +
        floor + ";";
    EXPECT_EQ(CountExchanges(
                  *testing::ExpectLine("db=oo7 exactio batch=1" + query).plan),
              0);
    EXPECT_GE(CountExchanges(
                  *testing::ExpectLine("db=oo7 dop=4 batch=1" + query).plan),
              1);
    testing::ExpectLine("db=oo7 dop=4 batch=16" + query);
  }
}

TEST_F(ExchangeTest, SerialPathQueriesChargeTheSameIoAtEveryBatch) {
  // Path and traversal queries whose Assemblies read their references in
  // the same disk order at batch 1 and batch 1024.
  for (const std::string& query :
       {std::string(kOo7QueryTraversal), std::string(kOo7QueryNewerComponents),
        Oo7QueryByDocTitle("Doc2"),
        std::string("SELECT a.id, a.partOf.buildDate FROM AtomicPart a IN "
                    "AtomicParts WHERE a.partOf.documentation.title == "
                    "\"Doc3\";")}) {
    EXPECT_GT(testing::ExpectLine("db=oo7 exactio batch=1 | " + query).rows(),
              0);
  }
}

TEST(WorkerPoolTest, EverySubmittedTaskGetsAThread) {
  // A merging Exchange needs all of its producers running at once: the
  // consumer reads the head of every stream, so a producer still waiting
  // for a pool thread while the others block on full queues deadlocks.
  // Each task here holds its thread until every task of its burst has
  // started. The second burst is larger than the pool the first one left
  // idle, so the pool must grow by the tasks its idle workers cannot take.
  for (int tasks : {4, 32}) {
    SCOPED_TRACE(tasks);
    std::atomic<int> started{0};
    std::atomic<int> saw_all{0};
    std::atomic<int> done{0};
    for (int t = 0; t < tasks; ++t) {
      WorkerPool::Instance().Submit([&] {
        ++started;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (started.load() < tasks &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (started.load() == tasks) ++saw_all;
        ++done;
      });
    }
    while (done.load() < tasks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(saw_all.load(), tasks);
    // Let every worker go back to waiting before the next burst.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

TEST(BufferPoolParallelTest, TwoThreadAccessManyKeepsCounts) {
  // Two scan workers share one pool, as a dop-2 Exchange's leaves do, each
  // over its own page range and charging its own stream: every access is
  // counted once as a hit or a miss, every miss is one disk read, and the
  // LRU never outgrows its capacity.
  CostModelOptions timing;
  constexpr int64_t kCapacity = 64;
  BufferPool pool(&timing, kCapacity);
  Counter* misses = MetricsRegistry::Global().counter(
      "oodb_buffer_pool_misses_total");
  const int64_t misses_before = misses->value();
  constexpr int kCalls = 2000;
  constexpr int kRun = 16;
  std::atomic<bool> over_capacity{false};
  SimStream streams[2];
  auto scan = [&](PageId first, SimStream* stream) {
    PageId pages[kRun];
    for (int call = 0; call < kCalls; ++call) {
      PageId start = first + (call * 7) % 480;
      for (int i = 0; i < kRun; ++i) pages[i] = start + i;
      EXPECT_TRUE(pool.AccessMany(pages, kRun, stream).ok());
      if (pool.resident() > kCapacity) over_capacity = true;
    }
  };
  std::thread a(scan, 0, &streams[0]), b(scan, 500, &streams[1]);
  a.join();
  b.join();
  const int64_t hits = streams[0].buffer_hits + streams[1].buffer_hits;
  const int64_t reads = streams[0].reads() + streams[1].reads();
  EXPECT_EQ(hits + reads, int64_t{2} * kCalls * kRun);
  EXPECT_GT(hits, 0);
  EXPECT_EQ(reads, misses->value() - misses_before);
  EXPECT_FALSE(over_capacity.load());
  EXPECT_LE(pool.resident(), kCapacity);
}

TEST_F(ExchangeTest, OidFaultParityAcrossDop) {
  // OID-targeted faults are order-independent, so serial and parallel runs
  // must agree exactly: both fail with kStorageFault (a worker trip drains
  // the pipeline), and removing the policy restores identical results.
  const std::string text =
      "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;";
  Planned serial = Plan(text, /*max_dop=*/1);
  Planned par = Plan(text, /*max_dop=*/4);
  ASSERT_GE(CountExchanges(*par.plan), 1);

  FaultPolicy faults;
  faults.fail_oids = {instance_->db->atomic_parts[7]};
  store().SetFaultPolicy(faults);

  auto serial_stats = Exec(serial, 1024);
  auto par_stats = Exec(par, 1024);
  store().SetFaultPolicy(FaultPolicy{});

  ASSERT_FALSE(serial_stats.ok());
  ASSERT_FALSE(par_stats.ok());
  EXPECT_EQ(serial_stats.status().code(), StatusCode::kStorageFault);
  EXPECT_EQ(par_stats.status().code(), StatusCode::kStorageFault);

  // Clean runs after the policy reset agree again.
  auto clean_serial = Exec(serial, 1024);
  auto clean_par = Exec(par, 1024);
  ASSERT_TRUE(clean_serial.ok()) << clean_serial.status();
  ASSERT_TRUE(clean_par.ok()) << clean_par.status();
  EXPECT_EQ(SortedRows(clean_serial->sample_rows),
            SortedRows(clean_par->sample_rows));
}

TEST_F(ExchangeTest, RandomFaultsYieldTypedOutcomesUnderDop) {
  // Probabilistic faults are not order-deterministic with DOP > 1; the
  // contract is weaker but still strict: either a clean reference-identical
  // result or a typed storage fault — never a crash or a short read.
  for (int trial = 0; trial < 10; ++trial) {
    testing::LineRun r = testing::ExpectLine(
        "db=oo7 dop=4 sp=0.02 sseed=" + std::to_string(0xfee1 + trial) +
        " | " + kOo7QueryNewerComponents);
    ASSERT_TRUE(r.ran);
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kStorageFault) << r.status;
    }
  }
}

TEST_F(ExchangeTest, GovernorRowBudgetTripsUnderDop) {
  Planned par = Plan(
      "SELECT a.id, a.x FROM AtomicPart a IN AtomicParts WHERE a.x >= 0;",
      /*max_dop=*/4);
  ASSERT_GE(CountExchanges(*par.plan), 1);

  GovernorOptions gov;
  gov.max_exec_rows = 10;
  QueryGovernor governor(gov);
  auto stats = Exec(par, 64, &governor);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kBudgetExhausted)
      << stats.status();
  EXPECT_GE(governor.stats().budget_trips, 1);
}

TEST_F(ExchangeTest, GovernorPageBudgetTripsUnderDop) {
  // Each worker charges the pages it reads to its own stream; its Ticks
  // still charge them to the one query budget, so a budget one page short
  // of the statement's reads trips although no single worker exceeds it.
  Planned par = Plan(
      "SELECT a.id, a.x FROM AtomicPart a IN AtomicParts WHERE a.x >= 0;",
      /*max_dop=*/4);
  ASSERT_EQ(MaxDopOf(*par.plan), 4);
  auto unlimited = Exec(par, 8);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();
  ASSERT_GE(unlimited->pages_read, 2);

  GovernorOptions gov;
  gov.max_exec_pages = unlimited->pages_read - 1;
  QueryGovernor governor(gov);
  auto stats = Exec(par, 8, &governor);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kBudgetExhausted)
      << stats.status();
  EXPECT_GE(governor.stats().budget_trips, 1);
  EXPECT_GT(governor.stats().pages_charged, gov.max_exec_pages);
}

TEST_F(ExchangeTest, CrossThreadCancellationDuringExchange) {
  Planned par = Plan(kOo7QueryTraversal, /*max_dop=*/4);

  // Pre-cancelled: the run must observe the token and fail typed.
  {
    GovernorOptions gov;
    gov.cancel = std::make_shared<CancelToken>();
    gov.cancel->RequestCancel();
    QueryGovernor governor(gov);
    auto stats = Exec(par, 64, &governor);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kCancelled) << stats.status();
  }

  // Cancelled from another thread mid-flight: either the query finished
  // first (OK) or it observed the cancellation — both are legal; crashes,
  // hangs, and untyped errors are not. Exercises the cross-thread trip
  // path under TSan.
  {
    GovernorOptions gov;
    gov.cancel = std::make_shared<CancelToken>();
    QueryGovernor governor(gov);
    std::thread canceller([token = gov.cancel] { token->RequestCancel(); });
    auto stats = Exec(par, 64, &governor);
    canceller.join();
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kCancelled)
          << stats.status();
    }
  }
}

TEST_F(ExchangeTest, WorkerClockMergeChargesLogicalWorkOnce) {
  // The accounting identity behind the worker-clock merge: a dop=k run of a
  // scan+filter+project pipeline does exactly the serial per-row work, plus
  // k worker startups and one flow charge per tuple crossing the Exchange.
  // A double-charge anywhere (a worker billing shared work already billed
  // on another clock) breaks the equality.
  const std::string text =
      "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;";
  Planned serial = Plan(text, /*max_dop=*/1);
  Planned par = Plan(text, /*max_dop=*/4);
  ASSERT_GE(CountExchanges(*par.plan), 1);
  int dop = MaxDopOf(*par.plan);

  auto s = Exec(serial, 1024);
  auto p = Exec(par, 1024);
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(s->rows, p->rows);

  // Every logical page is read (and missed) exactly once regardless of dop:
  // workers share the buffer pool, and the store fits without evictions.
  EXPECT_EQ(s->pages_read, p->pages_read);

  double expected =
      s->sim_cpu_s +
      static_cast<double>(dop) * store().timing().exchange_startup_s +
      static_cast<double>(s->rows) * store().timing().exchange_flow_tuple_s;
  EXPECT_NEAR(p->sim_cpu_s, expected, 1e-9)
      << "parallel CPU deviates from serial + exchange overhead: a worker "
         "is double- or under-charging shared work";
}

TEST_F(ExchangeTest, PartitionedIndexScanChargesLeavesOnce) {
  // Regression: IndexScanExec::Open used to charge leaf traversal for the
  // *full* match count from every worker, billing the same logical index
  // read k times once the private worker clocks merged. Each worker must
  // charge only its [pos, end) slice — disjoint slices sum to the serial
  // leaf charge, and only the per-worker root probe is legitimately
  // repeated.
  Planned p;
  p.ctx.catalog = &catalog();
  const std::string text =
      "SELECT b.id FROM BaseAssembly b IN BaseAssemblies "
      "WHERE b.buildDate >= 3;";
  auto logical = ParseAndSimplify(text, &p.ctx);
  ASSERT_TRUE(logical.ok()) << logical.status();
  p.logical = *logical;
  OptimizerOptions opts;
  opts.disabled_rules = {kImplFileScan};  // force the index path
  opts.verify_plans = true;
  Optimizer opt(&catalog(), std::move(opts));
  auto planned = opt.Optimize(*p.logical, &p.ctx);
  ASSERT_TRUE(planned.ok()) << planned.status();
  p.plan = planned->plan;
  ASSERT_EQ(CountOps(*p.plan, PhysOpKind::kIndexScan), 1)
      << PrintPlan(*p.plan, p.ctx);
  const PlanNode* driver = FindPartitionableScan(*p.plan);
  ASSERT_NE(driver, nullptr);
  ASSERT_EQ(driver->op.kind, PhysOpKind::kIndexScan);

  // Drains the whole plan under `env`, charging a private stream.
  auto drain = [&](int w, int k) -> double {
    SimStream stream;
    ExecEnv env;
    env.store = &store();
    env.ctx = &p.ctx;
    env.batch_size = 64;
    env.stream = &stream;
    if (k > 1) {
      env.partition_node = driver;
      env.partition_index = w;
      env.partition_count = k;
    }
    auto node = BuildExecNode(env, *p.plan);
    EXPECT_TRUE(node.ok()) << node.status();
    EXPECT_TRUE((*node)->Open().ok());
    TupleBatch batch(p.ctx.bindings.size(), 64);
    while (true) {
      auto n = (*node)->Next(&batch);
      EXPECT_TRUE(n.ok()) << n.status();
      if (!n.ok() || *n == 0) break;
    }
    (*node)->Close();
    return stream.clock.cpu_s;
  };

  store().ResetSimulation();
  double serial_cpu = drain(0, 1);
  constexpr int kWorkers = 4;
  double partitioned_cpu = 0.0;
  store().ResetSimulation();
  for (int w = 0; w < kWorkers; ++w) partitioned_cpu += drain(w, kWorkers);

  // Serial leaf charge once, plus the (kWorkers - 1) extra root probes.
  EXPECT_NEAR(partitioned_cpu,
              serial_cpu + (kWorkers - 1) * store().timing().index_probe_s,
              1e-12)
      << "partitioned index scans bill shared leaf traversal per worker";
}

TEST_F(ExchangeTest, ExplainAnnotatesBatchAndDop) {
  std::unique_ptr<Oo7Db> db = MakeOo7Catalog(testing::ParallelOo7Config());
  const std::string text =
      "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;";

  Session::Options serial_opts;
  Session serial(&db->catalog, serial_opts);
  auto serial_explain = serial.Explain(text);
  ASSERT_TRUE(serial_explain.ok()) << serial_explain.status();
  EXPECT_EQ(serial_explain->find("exec:"), std::string::npos);
  EXPECT_EQ(serial_explain->find("Exchange"), std::string::npos);

  Session::Options par_opts;
  par_opts.optimizer.max_dop = 4;
  Session par(&db->catalog, par_opts);
  auto par_explain = par.Explain(text);
  ASSERT_TRUE(par_explain.ok()) << par_explain.status();
  EXPECT_NE(par_explain->find("exec: batch=1024 dop="), std::string::npos)
      << *par_explain;
  EXPECT_NE(par_explain->find("Exchange"), std::string::npos) << *par_explain;
}

// --- ordered parity beyond OO7 ints ---------------------------------------

/// The paper database at scale 0.1 (5,000 employees sharing a few dozen
/// names): ordered statements over it plan a merging Exchange at max_dop 4,
/// and the reference evaluator stays quick. Covers what the OO7 sweeps do
/// not: string sort keys, descending keys with many ties, a partial sort,
/// and TopK with a LIMIT below and above its input.
class OrderedParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new PaperDb(MakePaperCatalog(0.1));
    store_ = new ObjectStore(&db_->catalog);
    GenOptions gen;
    gen.num_plants = 20;
    ASSERT_TRUE(GeneratePaperData(*db_, store_, gen).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete db_;
    store_ = nullptr;
    db_ = nullptr;
  }

  /// Holds every run of `query` — max_dop 1 to 4, batch 1 and 1024, the
  /// top-k fast paths on and off — to the reference sequence as deck lines
  /// (tests/harness.h). Returns the plans, indexed by max_dop - 1.
  static std::vector<PlanNodePtr> ExpectParity(const std::string& query) {
    std::vector<PlanNodePtr> plans;
    for (int dop = 1; dop <= 4; ++dop) {
      for (const char* run : {"batch=1", "batch=1 topk=0"}) {
        PlanNodePtr plan =
            testing::ExpectLine("db=paper10 dop=" + std::to_string(dop) + " " +
                                run + " | " + query)
                .plan;
        if (plans.size() < static_cast<size_t>(dop)) plans.push_back(plan);
      }
    }
    return plans;
  }

  /// Executes a hand-built plan over the city scan `c` whose order keys
  /// read the never-loaded mayor `c.mayor`.
  static Status RunUnloaded(const PlanNodePtr& plan, QueryContext* ctx,
                            bool topk) {
    ExecOptions eo;
    eo.topk = topk;
    return ExecutePlan(*plan, store_, ctx, eo).status();
  }

  static PaperDb* db_;
  static ObjectStore* store_;
};

PaperDb* OrderedParityTest::db_ = nullptr;
ObjectStore* OrderedParityTest::store_ = nullptr;

TEST_F(OrderedParityTest, StringKeyThroughMergingExchange) {
  std::vector<PlanNodePtr> plans =
      ExpectParity("SELECT e.name, e.age FROM Employee e IN Employees "
                   "WHERE e.age >= 20 ORDER BY e.name;");
  EXPECT_NE(FindMergeExchange(*plans[3]), nullptr);
}

TEST_F(OrderedParityTest, DescendingKeysWithManyTies) {
  std::vector<PlanNodePtr> plans =
      ExpectParity("SELECT e.age, e.name FROM Employee e IN Employees "
                   "WHERE e.age >= 20 ORDER BY e.age DESC;");
  EXPECT_NE(FindMergeExchange(*plans[3]), nullptr);
  ExpectParity("SELECT e.name, e.salary, e.age FROM Employee e IN Employees "
               "WHERE e.age >= 20 ORDER BY e.name DESC, e.salary;");
}

TEST_F(OrderedParityTest, PartialSortOverIndexOrder) {
  // The index delivers t.time; the Sort orders each run of equal times on
  // t.name.
  bool partial = false;
  for (const PlanNodePtr& p : ExpectParity(
           "SELECT t.time, t.name FROM Task t IN Tasks "
           "WHERE t.time >= 55 ORDER BY t.time, t.name;")) {
    std::vector<const PlanNode*> stack = {p.get()};
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      partial |= n->op.kind == PhysOpKind::kSort && n->op.sort_prefix > 0;
      for (const PlanNodePtr& c : n->children) stack.push_back(c.get());
    }
  }
  EXPECT_TRUE(partial);
}

TEST_F(OrderedParityTest, TopKLimitBelowAndAboveInput) {
  for (int64_t limit : {7, 100000}) {
    std::vector<PlanNodePtr> plans = ExpectParity(
        "SELECT e.name, e.age FROM Employee e IN Employees "
        "WHERE e.age >= 60 ORDER BY e.name DESC, e.age LIMIT " +
        std::to_string(limit) + ";");
    EXPECT_EQ(CountOps(*plans[0], PhysOpKind::kTopK), 1);
  }
}

TEST_F(OrderedParityTest, UnloadedSortKeyFailsWithTheReadError) {
  // Hand-built invalid plans: order keys on the mayor of a city scan, which
  // no operator loads. Sort, TopK (heap and oracle) and the merging
  // Exchange's cursor must each fail with the attribute-read error, naming
  // the unloaded binding.
  QueryContext ctx;
  ctx.catalog = &db_->catalog;
  BindingId c = ctx.bindings.AddGet("c", db_->city);
  BindingId m = ctx.bindings.AddMat("c.mayor", db_->person, c,
                                    db_->city_mayor);
  LogicalProps props;
  props.scope = BindingSet::Of(c);
  auto node = [&](PhysicalOp op, std::vector<PlanNodePtr> children) {
    return PlanNode::Make(op, std::move(children), props,
                          PhysProps{BindingSet::Of(c), {}}, Cost{});
  };
  PhysicalOp scan;
  scan.kind = PhysOpKind::kFileScan;
  scan.coll = CollectionId::Set("Cities", db_->city);
  scan.binding = c;
  PlanNodePtr scan_node = node(scan, {});
  const SortSpec bad_keys(
      std::vector<SortKey>{{c, db_->city_population, false},
                           {m, db_->person_age, true}});

  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = bad_keys;
  PhysicalOp topk = sort;
  topk.kind = PhysOpKind::kTopK;
  topk.limit = 5;
  // The merge reads the mayor; its workers sort on the loaded population.
  PhysicalOp good_sort = sort;
  good_sort.sort = SortSpec(c, db_->city_population);
  PhysicalOp exchange;
  exchange.kind = PhysOpKind::kExchange;
  exchange.dop = 2;
  exchange.merge = true;
  exchange.partition_binding = c;
  exchange.sort = SortSpec(m, db_->person_age);

  struct {
    const char* label;
    PlanNodePtr plan;
    bool topk;
  } cases[] = {
      {"sort", node(sort, {scan_node}), true},
      {"topk heap", node(topk, {scan_node}), true},
      {"topk oracle", node(topk, {scan_node}), false},
      {"merge", node(exchange, {node(good_sort, {scan_node})}), true},
  };
  for (const auto& k : cases) {
    SCOPED_TRACE(k.label);
    Status st = RunUnloaded(k.plan, &ctx, k.topk);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
    EXPECT_EQ(st.message(),
              "attribute read on component not present in memory: c.mayor");
  }
}

}  // namespace
}  // namespace oodb
