// Chaos suite (`ctest -L chaos`; CI repeats it under ASan and TSan with
// pinned seeds): randomized exec-layer fault injection across DOP 1/4,
// fault kind (deterministic kill, probabilistic kill, straggler, queue
// stall), and seeds. The invariant under chaos: every execution either
// returns the fault-free reference result multiset bit for bit, or a clean
// *typed* Status — never a crash, a hang, a torn batch, a duplicated or
// missing row, or a leaked pooled arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/exec/reference.h"
#include "src/workloads/oo7.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

using testing::FindMergeExchange;
using testing::RandomOo7Query;
using testing::RowSeq;
using testing::SortedRows;

/// The typed Statuses a chaotic execution may legally end with. Anything
/// else — in particular kInternal, which the Exchange recovery path uses to
/// flag a duplicate partition delivery — fails the suite.
bool IsCleanTypedFailure(StatusCode code) {
  return code == StatusCode::kWorkerFault ||
         code == StatusCode::kStorageFault ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kBudgetExhausted ||
         code == StatusCode::kCancelled;
}

/// A randomized fault policy: one of the four injectable fault kinds, with
/// randomized site parameters. `transient` controls fail/slow_attempts so a
/// case can demand recovery-must-win (transient) or typed-terminal
/// (permanent) behavior.
ExecFaultPolicy RandomFaultPolicy(Rng& rng, int dop, bool transient) {
  ExecFaultPolicy p;
  p.seed = rng.Next();
  switch (rng.Uniform(4)) {
    case 0:  // deterministic worker kill
      p.fail_worker = static_cast<int>(rng.Uniform(std::max(1, dop)));
      p.fail_after_batches = 1 + static_cast<int64_t>(rng.Uniform(3));
      p.fail_attempts = transient ? 1 + static_cast<int>(rng.Uniform(2)) : 1000;
      break;
    case 1:  // probabilistic kill at operator Next() granularity
      p.fail_probability = 0.02 + 0.08 * rng.NextDouble();
      p.fail_attempts = transient ? 1 : 1000;
      break;
    case 2:  // straggler
      p.slow_worker = static_cast<int>(rng.Uniform(std::max(1, dop)));
      p.slow_ms = 0.5;
      p.slow_sim_s = 0.001;
      p.slow_attempts = 1;
      break;
    default:  // bounded queue stall
      p.stall_pushes = 1 + static_cast<int64_t>(rng.Uniform(4));
      p.stall_ms = 0.5;
      break;
  }
  return p;
}

class ChaosTest : public testing::Oo7ParallelTest {};

// The query every directed (non-sweep) case uses: large scan, reliably
// parallelized at max_dop 4, several batches per partition.
constexpr const char* kParallelQuery =
    "SELECT a.id FROM AtomicPart a IN AtomicParts WHERE a.x > a.y;";

TEST_F(ChaosTest, TransientWorkerKillRecoversWithParity) {
  Planned p = Plan(kParallelQuery, /*max_dop=*/4);
  std::vector<std::string> expect = Reference(p);

  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults.fail_worker = 1;
  eo.exec_faults.fail_after_batches = 1;
  eo.exec_faults.fail_attempts = 1;  // transient: the retry must run clean
  eo.recovery.max_partition_attempts = 3;
  auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(SortedRows(stats->sample_rows), expect);
  EXPECT_GE(stats->faults_injected, 1);
  EXPECT_GE(stats->partitions_retried, 1);
  EXPECT_EQ(stats->partitions_speculated, 0);
}

TEST_F(ChaosTest, PermanentWorkerKillSurfacesTypedStatusThenEngineRecovers) {
  Planned p = Plan(kParallelQuery, /*max_dop=*/4);
  std::vector<std::string> expect = Reference(p);

  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults.fail_worker = 0;
  eo.exec_faults.fail_after_batches = 1;
  eo.exec_faults.fail_attempts = 1000;  // permanent: every attempt dies
  eo.recovery.max_partition_attempts = 2;
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

TEST_F(ChaosTest, StragglerSpeculationDeliversParity) {
  // Partition 0's first attempt sleeps 25ms per batch; the consumer checks
  // for stragglers whenever its queue stays empty for 10ms and speculates
  // any partition later than 0.05% of the 20s deadline (10ms). The rival
  // attempt (attempt 1 >= slow_attempts) runs at full speed and wins;
  // first-result-wins suppresses the straggler. The merging Exchange (ORDER
  // BY) goes through the same dispatch, so its rival must also reproduce
  // the fault-free sequence.
  GovernorOptions gopts;
  gopts.deadline_ms = 20000.0;  // generous: the test is about speculation,
                                // not deadline trips (CI machines stall)
  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults.slow_worker = 0;
  eo.exec_faults.slow_ms = 25.0;
  eo.exec_faults.slow_attempts = 1;
  eo.recovery.max_partition_attempts = 3;
  eo.recovery.straggler_threshold = 0.0005;
  {
    SCOPED_TRACE("plain");
    Planned p = Plan(kParallelQuery, /*max_dop=*/4);
    QueryGovernor governor(gopts);
    eo.governor = &governor;
    auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(SortedRows(stats->sample_rows), Reference(p));
    EXPECT_GE(stats->partitions_speculated, 1);
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
    EXPECT_GE(stats->partitions_speculated, 1);
  }
}

TEST_F(ChaosTest, QueueStallIsBoundedAndCorrect) {
  Planned p = Plan(kParallelQuery, /*max_dop=*/4);
  std::vector<std::string> expect = Reference(p);

  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults.stall_pushes = 4;
  eo.exec_faults.stall_ms = 2.0;
  auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(SortedRows(stats->sample_rows), expect);
}

TEST_F(ChaosTest, RecoveredRunsKeepBatchPoolSteadyState) {
  // The pooled-arena invariant under faults: a recovered (partition-retried)
  // execution returns every arena it took — staged by the failed attempt,
  // in flight in a queue, or held by a merge cursor. Whether a Take() hits
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
    // Small batches, and the kill after the second: the failed attempt has
    // staged a batch to give back.
    ExecOptions eo;
    eo.sample_limit = 1 << 22;
    eo.batch_size = 8;
    eo.exec_faults.fail_worker = 1;
    eo.exec_faults.fail_after_batches = 2;
    eo.exec_faults.fail_attempts = 1;
    eo.recovery.max_partition_attempts = 3;
    for (int run = 0; run < 3; ++run) {
      const int64_t taken = hits->value() + misses->value();
      const int64_t returned = recycled->value() + dropped->value();
      auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_GE(stats->partitions_retried, 1);
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

// --- randomized sweep: ExecutePlan level ---

TEST_P(ChaosTest, SweepFaultKindsAcrossEnginesAndDop) {
  Rng rng(0xc8a05 + static_cast<uint64_t>(GetParam()) * 7919);
  std::string text = RandomOo7Query(rng);
  SCOPED_TRACE(text);
  int max_dop = rng.Uniform(2) == 0 ? 1 : 4;
  bool transient = rng.Uniform(2) == 0;
  Planned p = Plan(text, max_dop);
  std::vector<std::string> expect = Reference(p);

  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults = RandomFaultPolicy(rng, max_dop, transient);
  eo.recovery.max_partition_attempts = 3;
  auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  if (stats.ok()) {
    // Recovered (or unharmed): the result must be the fault-free multiset,
    // bit for bit — no duplicated rows from re-executed partitions, no
    // missing rows from suppressed attempts.
    EXPECT_EQ(SortedRows(stats->sample_rows), expect)
        << "plan:\n" << PrintPlan(*p.plan, p.ctx);
  } else {
    EXPECT_TRUE(IsCleanTypedFailure(stats.status().code()))
        << stats.status() << "\nplan:\n" << PrintPlan(*p.plan, p.ctx);
  }
}

TEST_P(ChaosTest, OrderedFaultSweepPreservesSequence) {
  // Ordered (and limited) deliveries under fault injection: the contract
  // tightens from multiset parity to *sequence* parity. A merge
  // partition's FIFO receives exactly one attempt's whole sorted stream, so an
  // execution that reports OK must reproduce the fault-free row sequence
  // exactly — a merge that resumed mid-stream or dropped a stream's tail
  // would reorder or truncate visibly here.
  Rng rng(0x53c1 + static_cast<uint64_t>(GetParam()) * 12007);
  const char* fields[] = {"buildDate", "x", "y"};
  std::string key = fields[rng.Uniform(3)];
  bool desc = rng.Uniform(2) == 1;
  std::string text = "SELECT a." + key +
                     ", a.id FROM AtomicPart a IN AtomicParts "
                     "WHERE a.x >= " +
                     std::to_string(rng.UniformRange(0, 500)) + " ORDER BY a." +
                     key + (desc ? " DESC" : "");
  if (rng.Uniform(2) == 0) {
    text += " LIMIT " + std::to_string(1 + rng.Uniform(30));
  }
  text += ";";
  SCOPED_TRACE(text);
  Planned p = Plan(text, /*max_dop=*/4);

  // Fault-free baseline sequence from the very same plan.
  ExecOptions base;
  base.sample_limit = 1 << 22;
  auto clean = ExecutePlan(*p.plan, &store(), &p.ctx, base);
  ASSERT_TRUE(clean.ok()) << clean.status();
  std::vector<std::string> expect = RowSeq(clean->sample_rows);

  bool transient = rng.Uniform(2) == 0;
  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.exec_faults = RandomFaultPolicy(rng, /*dop=*/4, transient);
  eo.recovery.max_partition_attempts = 3;
  auto stats = ExecutePlan(*p.plan, &store(), &p.ctx, eo);
  if (stats.ok()) {
    EXPECT_EQ(RowSeq(stats->sample_rows), expect)
        << "plan:\n" << PrintPlan(*p.plan, p.ctx);
  } else {
    EXPECT_TRUE(IsCleanTypedFailure(stats.status().code()))
        << stats.status() << "\nplan:\n" << PrintPlan(*p.plan, p.ctx);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range(0, 24));

// --- randomized sweep: Session retry ladder ---

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

  static std::string RandomPaperQuery(Rng& rng) {
    switch (rng.Uniform(4)) {
      case 0:
        return "SELECT e.name FROM Employee e IN Employees WHERE e.age >= " +
               std::to_string(rng.UniformRange(20, 60)) + ";";
      case 1:
        return "SELECT c.name FROM City c IN Cities "
               "WHERE c.mayor.name == \"Joe\";";
      case 2:
        return "SELECT e.name, e.age FROM Employee e IN Employees "
               "WHERE e.age >= " +
               std::to_string(rng.UniformRange(20, 60)) +
               " ORDER BY e.age;";
      default:
        return "SELECT e.name, e.dept.name FROM Employee e IN Employees "
               "WHERE e.age >= " +
               std::to_string(rng.UniformRange(20, 60)) + ";";
    }
  }

  PaperDb db_;
};

TEST_P(SessionChaosTest, RetryLadderConvergesOrFailsTyped) {
  Rng rng(0x5e55 + static_cast<uint64_t>(GetParam()) * 104729);
  std::string text = RandomPaperQuery(rng);
  SCOPED_TRACE(text);
  bool transient = rng.Uniform(2) == 0;

  Session::Options opts;
  opts.optimizer.max_dop = rng.Uniform(2) == 0 ? 1 : 4;
  opts.exec.sample_limit = 1 << 22;
  opts.exec.exec_faults =
      RandomFaultPolicy(rng, opts.optimizer.max_dop, transient);
  opts.exec.recovery.max_partition_attempts = 2;
  opts.retry.max_attempts = 4;
  opts.retry.backoff_s = 0.001;
  opts.governor.max_retries = 64;
  std::unique_ptr<Session> s = MakeSession(std::move(opts));

  auto r = s->Query(text);
  if (transient) {
    // A transient fault (attempt 0 only) must be survived — by partition
    // re-execution, or by the ladder's later attempts running with a
    // higher attempt number. Failure here means retry/recovery lost rows
    // or gave up on a curable fault.
    ASSERT_TRUE(r.ok()) << r.status();
  }
  if (r.ok()) {
    auto reference = EvaluateReference(*r->logical, &s->store(), r->ctx);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(SortedRows(r->rows()), SortedRows(reference->rows));
    ASSERT_FALSE(r->attempts.empty());
    EXPECT_TRUE(r->attempts.back().status.ok());
  } else {
    EXPECT_TRUE(IsCleanTypedFailure(r.status().code())) << r.status();
  }
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
  opts.retry.backoff_s = 0.5;
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
    // workers and backoff accumulated in simulated time (0.5 + 1.0 + ...).
    EXPECT_TRUE(last.step == "serial" || last.step == "greedy") << last.step;
    EXPECT_GE(r->retry_backoff_s, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionChaosTest, ::testing::Range(0, 16));

// When OODB_CHAOS_SNAPSHOT names a path, dump the process-wide metrics
// registry to it. CI runs the whole binary in one process with this set
// (ctest discovery runs each test in its own process, where the registry
// holds only that test's counters), so the file it uploads aggregates the
// fault/retry/recovery counters of the entire chaos sweep.
TEST(ZChaosArtifact, WritesMetricsSnapshotWhenRequested) {
  const char* path = std::getenv("OODB_CHAOS_SNAPSHOT");
  if (path == nullptr) GTEST_SKIP() << "OODB_CHAOS_SNAPSHOT not set";
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot open " << path;
  out << MetricsRegistry::Global().TextSnapshot();
  out.close();
  EXPECT_TRUE(out.good());
}

}  // namespace
}  // namespace oodb
