// Shared test helpers.
#ifndef OODB_TESTS_TEST_UTIL_H_
#define OODB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/oodb.h"
#include "src/query/zql_parser.h"
#include "src/workloads/oo7.h"
#include "src/workloads/paper_queries.h"

namespace oodb {
namespace testing {

#define ASSERT_OK(expr)                                   \
  do {                                                    \
    const auto& _res = (expr);                            \
    ASSERT_TRUE(StatusOf(_res).ok()) << StatusOf(_res);   \
  } while (0)

#define EXPECT_OK(expr)                                   \
  do {                                                    \
    const auto& _res = (expr);                            \
    EXPECT_TRUE(StatusOf(_res).ok()) << StatusOf(_res);   \
  } while (0)

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  static const Status kOk;
  return r.ok() ? kOk : r.status();
}

/// True if any plan operator's display string contains `needle`.
bool PlanContains(const PlanNode& plan, const QueryContext& ctx,
                  const std::string& needle);

/// Preorder operator kinds of a plan.
std::vector<PhysOpKind> PlanKinds(const PlanNode& plan);

/// The first order-preserving (merging) Exchange in preorder, or null.
const PlanNode* FindMergeExchange(const PlanNode& plan);

/// Optimizes paper query `n` under `opts`; aborts the test on failure.
OptimizedQuery MustOptimize(int n, const PaperDb& db, QueryContext* ctx,
                            OptimizerOptions opts = {});

/// The batch-size accounting oracle. `batched` and `single` are runs of one
/// plan at batch 1024 and at batch 1. Batch 1 is below
/// FilterProgram::kMinKernelRows, so its filters take the per-row fallback
/// instead of the columnar kernels. Both runs must return the `expect` rows
/// (the reference evaluator's, or an oracle run's; compared as multisets,
/// so the runs need a sample_limit that keeps them all) and read the same
/// pages. Simulated CPU is compared within 1e-12 relative: batch size
/// changes the summation order in the last bits. Simulated I/O seconds are
/// compared exactly only when `exact_io`. Whether a read counts as
/// sequential or as a seek depends on the order of reads on the one disk
/// arm, and two things change that order: at dop > 1, thread scheduling;
/// on a serial plan whose operators read pages in turn (a scan feeding an
/// assembly), the batch size.
void ExpectBatchAccountingMatches(const ExecStats& batched,
                                  const ExecStats& single,
                                  const std::vector<std::vector<Value>>& expect,
                                  bool exact_io);

/// Result rows rendered "v|v|...|" and sorted: the multiset oracle.
std::vector<std::string> SortedRows(
    const std::vector<std::vector<Value>>& rows);

/// Result rows rendered in delivery order (no normalization): the oracle
/// for ordered queries, where the *sequence* is the contract.
std::vector<std::string> RowSeq(const std::vector<std::vector<Value>>& rows);

/// The small OO7 instance the parallel suites (exchange, chaos) run on.
Oo7Options ParallelOo7Config();

/// A ZQL statement parsed, simplified and optimized (ORDER BY / LIMIT become
/// the required root properties) with the plan verifier on.
struct PlannedQuery {
  QueryContext ctx;
  LogicalExprPtr logical;
  PlanNodePtr plan;
};
PlannedQuery PlanQuery(Catalog* catalog, const std::string& text,
                       int max_dop = 1);

/// Fixture of the parallel suites: one ParallelOo7Config instance per test
/// suite, ZQL planning at a chosen max_dop, and the reference oracle.
class Oo7ParallelTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite();
  static void TearDownTestSuite();

  static Catalog& catalog() { return instance_->db->catalog; }
  static ObjectStore& store() { return *instance_->store; }

  using Planned = PlannedQuery;

  /// PlanQuery over the suite's catalog.
  static Planned Plan(const std::string& text, int max_dop = 1) {
    return PlanQuery(&catalog(), text, max_dop);
  }

  /// The reference evaluator's rows for `p`, as SortedRows.
  static std::vector<std::string> Reference(const Planned& p);

  static Oo7Instance* instance_;
};

}  // namespace testing

/// Parses ZQL text, returning null (with a test failure) on error.
ZqlQueryPtr ParseZqlForTest(const std::string& text);

}  // namespace oodb

#endif  // OODB_TESTS_TEST_UTIL_H_
