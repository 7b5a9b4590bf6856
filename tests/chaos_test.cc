// Chaos suite (`ctest -L chaos`; CI repeats it under ASan and TSan with
// pinned seeds): the differential harness's exec-fault and Session slices
// (tests/harness.h) across DOP 1/2/4, fault kind (deterministic kill,
// probabilistic kill, straggler, queue stall), and seeds. The invariant under chaos: every execution either
// returns the fault-free reference result multiset bit for bit, or a clean
// *typed* Status — never a crash, a hang, a torn batch, a duplicated or
// missing row, or a leaked pooled arena.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/workloads/oo7.h"
#include "tests/harness.h"

namespace oodb {
namespace {

using testing::FindMergeExchange;
using testing::RowSeq;
using testing::SortedRows;

class ChaosTest : public testing::Oo7ParallelTest {};

// The query every directed (non-sweep) case uses: large scan, reliably
// parallelized at max_dop 4, several batches per partition.
constexpr const char* kParallelQuery =
    "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;";

TEST_F(ChaosTest, TransientWorkerKillRecoversWithParity) {
  // Transient: the kill ends the Session's first attempt, the second re-runs
  // the same parallel plan (nodegrade) clean, and the deck line holds the
  // result to the reference rows.
  testing::LineRun r = testing::ExpectLine(
      std::string("db=oo7 dop=4 session=2 nodegrade xf=fail_worker=1,"
                  "fail_after_batches=1,fail_attempts=1 | ") +
      kParallelQuery);
  ASSERT_GT(r.rows(), 0);
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].status.code(), StatusCode::kWorkerFault);
  EXPECT_EQ(r.attempts[1].step, "planned");
  EXPECT_TRUE(r.attempts[1].status.ok()) << r.attempts[1].status;
}

TEST_F(ChaosTest, PermanentWorkerKillSurfacesTypedStatusThenEngineRecovers) {
  Planned p = Plan(kParallelQuery, /*max_dop=*/4);
  std::vector<std::string> expect = Reference(p);

  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults.fail_worker = 0;
  eo.exec_faults.fail_after_batches = 1;
  eo.exec_faults.fail_attempts = 1000;  // permanent: every attempt dies
  auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kWorkerFault)
      << stats.status();

  // The failure left no torn state behind: the same plan re-executes clean
  // (fresh options, no injector) with full parity.
  ExecOptions clean;
  clean.sample_limit = 1 << 22;
  auto again = ExecutePlan(*p.plan, &store(), &p.ctx, clean);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(SortedRows(again->sample_rows), expect);
}

TEST_F(ChaosTest, StragglerDeliversParity) {
  // Partition 0 sleeps 25ms per batch, so the consumer's queue stays empty
  // past its 10ms check interval and it ticks the governor while it waits.
  // The plain Exchange must still deliver the reference rows, and the
  // merging one (ORDER BY) the fault-free sequence.
  GovernorOptions gopts;
  gopts.deadline_ms = 20000.0;  // generous: the test is about parity, not
                                // deadline trips (CI machines stall)
  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults.slow_worker = 0;
  eo.exec_faults.slow_ms = 25.0;
  {
    SCOPED_TRACE("plain");
    Planned p = Plan(kParallelQuery, /*max_dop=*/4);
    QueryGovernor governor(gopts);
    eo.governor = &governor;
    auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(SortedRows(stats->sample_rows), Reference(p));
  }
  {
    SCOPED_TRACE("merge");
    Planned p = Plan(
        "SELECT a.id, a.x FROM AtomicPart a IN AtomicParts "
        "WHERE a.x > a.y ORDER BY a.x;",
        /*max_dop=*/4);
    ASSERT_NE(FindMergeExchange(*p.plan), nullptr)
        << PrintPlan(*p.plan, p.ctx);
    ExecOptions clean;
    clean.sample_limit = 1 << 22;
    auto base = ExecutePlan(*p.plan, &store(), &p.ctx, clean);
    ASSERT_TRUE(base.ok()) << base.status();
    QueryGovernor governor(gopts);
    eo.governor = &governor;
    auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(RowSeq(stats->sample_rows), RowSeq(base->sample_rows));
  }
}

TEST_F(ChaosTest, QueueStallIsBoundedAndCorrect) {
  EXPECT_GT(testing::ExpectLine(
                std::string("db=oo7 dop=4 xf=stall_pushes=4,stall_ms=2 | ") +
                kParallelQuery)
                .rows(),
            0);
}

TEST_F(ChaosTest, FaultedRunsKeepBatchPoolSteadyState) {
  // The pooled-arena invariant under faults: an execution that a worker
  // kill aborts returns every arena it took — in flight in a queue, or held
  // by a merge cursor. Whether a Take() hits
  // or misses depends on how many arenas happen to be live at once, which
  // is thread scheduling, so the check is the exact balance on every run:
  // arenas taken (hits + misses) equal arenas returned (recycled + dropped).
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter* hits = metrics.counter("oodb_batch_pool_hits_total");
  Counter* misses = metrics.counter("oodb_batch_pool_misses_total");
  Counter* recycled = metrics.counter("oodb_batch_pool_recycled_total");
  Counter* dropped = metrics.counter("oodb_batch_pool_dropped_total");
  // A plain Exchange, a merge that drains every stream, and a merge whose
  // limit ends it while its cursors still hold batches.
  const char* queries[] = {
      kParallelQuery,
      "SELECT a.id, a.x FROM AtomicPart a IN AtomicParts "
      "WHERE a.x > a.y ORDER BY a.x;",
      "SELECT a.id, a.x FROM AtomicPart a IN AtomicParts "
      "WHERE a.x > a.y ORDER BY a.x LIMIT 20;",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    Planned p = Plan(text, /*max_dop=*/4);
    ASSERT_EQ(FindMergeExchange(*p.plan) != nullptr, text != kParallelQuery)
        << PrintPlan(*p.plan, p.ctx);
    // Small batches, and the kill after the second: the other workers have
    // batches queued when the abort drains the pipeline.
    ExecOptions eo;
    eo.sample_limit = 1 << 22;
    eo.batch_size = 8;
    eo.exec_faults.fail_worker = 1;
    eo.exec_faults.fail_after_batches = 2;
    eo.exec_faults.fail_attempts = 1;
    for (int run = 0; run < 3; ++run) {
      const int64_t taken = hits->value() + misses->value();
      const int64_t returned = recycled->value() + dropped->value();
      auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status().code(), StatusCode::kWorkerFault)
          << stats.status();
      EXPECT_EQ(hits->value() + misses->value() - taken,
                recycled->value() + dropped->value() - returned)
          << "run " << run << ": an execution leaked a batch arena";
    }
  }
}

TEST_F(ChaosTest, RowBudgetTripReturnsTheDrainBatch) {
  // A governed serial execution that trips its row budget in the drain
  // loop gives the drain batch back to the pool like a clean run does.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter* hits = metrics.counter("oodb_batch_pool_hits_total");
  Counter* misses = metrics.counter("oodb_batch_pool_misses_total");
  Counter* recycled = metrics.counter("oodb_batch_pool_recycled_total");
  Counter* dropped = metrics.counter("oodb_batch_pool_dropped_total");
  Planned p = Plan(kParallelQuery, /*max_dop=*/1);
  for (int run = 0; run < 3; ++run) {
    GovernorOptions budget;
    budget.max_exec_rows = 5;
    QueryGovernor governor(budget);
    ExecOptions eo;
    eo.governor = &governor;
    const int64_t taken = hits->value() + misses->value();
    const int64_t returned = recycled->value() + dropped->value();
    auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kBudgetExhausted)
        << stats.status();
    EXPECT_EQ(hits->value() + misses->value() - taken,
              recycled->value() + dropped->value() - returned)
        << "run " << run << ": a budget trip leaked the drain batch";
  }
}

// --- the differential harness's exec-fault slices (tests/harness.h) ---

TEST_P(ChaosTest, SweepFaultKindsAcrossEnginesAndDop) {
  testing::ExpectSeed(testing::Slice::kChaos, GetParam());
}

TEST_P(ChaosTest, OrderedFaultSweepPreservesSequence) {
  testing::ExpectSeed(testing::Slice::kChaos, GetParam(), /*ordered=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range(0, 24));

// --- the Session retry ladder ---

class SessionChaosTest : public ::testing::TestWithParam<int> {
 protected:
  SessionChaosTest() : db_(MakePaperCatalog(0.02)) {}

  std::unique_ptr<Session> MakeSession(Session::Options opts) {
    auto s = std::make_unique<Session>(&db_.catalog, std::move(opts));
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(db_, &s->store(), gen);
    EXPECT_TRUE(r.ok()) << r.status();
    return s;
  }

  PaperDb db_;
};

// The harness's Session slice: retry/degrade ladder, exec faults,
// budgets and adaptive re-planning.
TEST_P(SessionChaosTest, RetryLadderConvergesOrFailsTyped) {
  testing::ExpectSeed(testing::Slice::kSession, GetParam());
}

TEST_F(SessionChaosTest, LadderWalksToSerialUnderPersistentExchangeFault) {
  // A fault policy that kills Exchange workers on every attempt but never
  // fires on the serial path's root (fail_worker 1 only exists under an
  // Exchange): the ladder must walk planned -> serial and converge there
  // with full parity.
  Session::Options opts;
  opts.optimizer.max_dop = 4;
  opts.exec.sample_limit = 1 << 22;
  opts.exec.exec_faults.fail_worker = 1;
  opts.exec.exec_faults.fail_after_batches = 1;
  opts.exec.exec_faults.fail_attempts = 1000;  // permanent at every attempt
  opts.retry.max_attempts = 4;
  std::unique_ptr<Session> s = MakeSession(std::move(opts));

  // A query wide enough to parallelize; if the optimizer keeps it serial
  // the fault simply never fires and the first attempt succeeds — the
  // assertions below hold either way.
  auto r = s->Query(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 30;");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->attempts.empty());
  const ExecAttempt& last = r->attempts.back();
  EXPECT_TRUE(last.status.ok());
  if (r->attempts.size() > 1) {
    // The ladder actually walked: the winning rung ran without Exchange
    // workers.
    EXPECT_TRUE(last.step == "serial" || last.step == "greedy") << last.step;
  }
  if (last.step == "serial") {
    // The serial rung runs (and ANALYZE renders) a plan with no Exchange.
    EXPECT_EQ(CountOps(*r->optimized.plan, PhysOpKind::kExchange), 0);
    EXPECT_EQ(r->exec.dop, 1);
  }
}

TEST_F(SessionChaosTest, LadderVerifiesTheGreedyRungsPlan) {
  // Worker 0 dies at its first batch boundary on attempts 0 and 1, so the
  // planned and serial rungs fail and the greedy rung (attempt 2) runs.
  // Its plan must be verified like every other plan under verify_plans.
  Session::Options opts;
  opts.optimizer.verify_plans = true;
  opts.exec.exec_faults.fail_worker = 0;
  opts.exec.exec_faults.fail_after_batches = 1;
  opts.exec.exec_faults.fail_attempts = 2;
  opts.retry.max_attempts = 3;
  std::unique_ptr<Session> s = MakeSession(std::move(opts));
  auto r = s->Query(
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 30;");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->attempts.size(), 3u);
  EXPECT_FALSE(r->attempts[0].status.ok());
  EXPECT_FALSE(r->attempts[1].status.ok());
  EXPECT_EQ(r->attempts.back().step, "greedy");
  EXPECT_TRUE(r->attempts.back().status.ok()) << r->attempts.back().status;
  EXPECT_TRUE(r->optimized.stats.degraded);
  EXPECT_TRUE(r->optimized.stats.verified);
  EXPECT_EQ(r->optimized.stats.verify_error, "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionChaosTest, ::testing::Range(0, 16));

// When OODB_CHAOS_SNAPSHOT names a path, dump the process-wide metrics
// registry to it. CI runs the whole binary in one process with this set
// (ctest discovery runs each test in its own process, where the registry
// holds only that test's counters). gtest runs the parameterized sweeps
// after every plain test, so the environment rewrites the file once the
// last test is done: it aggregates the fault and retry counters of
// the entire chaos sweep.
bool WriteSnapshot() {
  const char* path = std::getenv("OODB_CHAOS_SNAPSHOT");
  std::ofstream out(path);
  out << MetricsRegistry::Global().TextSnapshot();
  out.close();
  return out.good();
}

class SnapshotEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    if (std::getenv("OODB_CHAOS_SNAPSHOT") != nullptr) {
      EXPECT_TRUE(WriteSnapshot());
    }
  }
};

::testing::Environment* const kSnapshotEnvironment =
    ::testing::AddGlobalTestEnvironment(new SnapshotEnvironment);

TEST(ZChaosArtifact, WritesMetricsSnapshotWhenRequested) {
  if (std::getenv("OODB_CHAOS_SNAPSHOT") == nullptr) {
    GTEST_SKIP() << "OODB_CHAOS_SNAPSHOT not set";
  }
  EXPECT_TRUE(WriteSnapshot());
}

}  // namespace
}  // namespace oodb
