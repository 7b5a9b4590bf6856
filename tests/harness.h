// The differential harness: one seeded ZQL generator, one configuration
// space and three oracles. A case is one deck line, `<config> | <ZQL>`:
//
//   dop=4 batch=7 off=join-order xf=fail_worker=1 session=4 | SELECT ...;
//
// Oracle 1 (metamorphic): the optimum never gets cheaper when one more rule
// is disabled. Oracle 2 (join order): on a join graph of ranges, paths and
// conjuncts over one or two ranges, the memo's optimum is never
// costlier than a bitset DP over subsets of the ranges priced with the same
// cost functions. Oracle 3 (execution): the rows equal the reference
// evaluator's (as a multiset; run by run under ORDER BY), or the run ends in
// a clean typed Status when faults or budgets are drawn. A failing
// generated case shrinks to the shortest line that still fails the same way.
#ifndef OODB_TESTS_HARNESS_H_
#define OODB_TESTS_HARNESS_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace oodb {
namespace testing {

/// The part of the configuration space a seed draws from. Slices with
/// dop > 1 run in oodb_parallel_tests, slices with exec faults in
/// oodb_chaos_tests, so the sanitizer jobs of those labels cover them.
enum class Slice {
  kSerial,    ///< dop 1: rules, pruning, merge join, warm start, batch, topk
  kFaults,    ///< kSerial plus storage faults and governor budgets
  kParallel,  ///< dop 2/4 with batch sizes, storage faults and budgets
  kChaos,     ///< exec faults under a bare ExecutePlan, dop 1/2/4
  kSession,   ///< Session retry/degrade ladder, adaptive re-planning
};

/// The rules oracle 1 switches off one at a time, in the ablation tests
/// and as each generated case's `ablate=` draw.
inline constexpr const char* kAblatedRules[] = {
    kRuleJoinCommute,      kRuleJoinOrder,           kRuleMatToJoin,
    kRuleSelectMatCommute, kRuleSelectUnnestCommute, kRuleSelectJoinPush,
    kImplIndexScan,        kImplPointerJoin,         kImplHybridHashJoin,
    kEnforcerAssembly,
};

/// What a deck line's direct run planned and returned.
struct LineRun {
  PlanNodePtr plan;
  bool ran = false;  // oracle 3 executed the plan
  Status status;     // the run's outcome
  ExecStats stats;   // the run's statistics when it returned OK
  std::vector<ExecAttempt> attempts;  // the retry trail of a `session=` run

  int64_t rows() const { return ran && status.ok() ? stats.rows : -1; }
};

/// Checks one deck line under every oracle that applies to it.
LineRun ExpectLine(const std::string& line);

/// Draws case `seed` of `slice` (an ORDER BY query when `ordered`), checks
/// it, and on failure reports the shrunk one-line repro.
void ExpectSeed(Slice slice, int seed, bool ordered = false);

/// Oracle 1 for `rule` alone, over `lines` and the first `seeds` generated
/// serial queries: disabling it never finds a cheaper plan.
void ExpectAblationNeverCheaper(const char* rule,
                                const std::vector<std::string>& lines,
                                int seeds);

/// The row sequence the query of `line` must deliver: its reference rows
/// stable-sorted on its ORDER BY keys (select columns) and cut at its
/// LIMIT, as RowSeq strings.
std::vector<std::string> ReferenceSequence(const std::string& line);

/// The memo's optimal cost for the query of `line` under its config, and
/// oracle 2's DP cost for it (nullopt when the query is out of the DP's
/// scope: an unnest, or a conjunct over three ranges or none).
std::pair<double, std::optional<double>> MemoAndDpCost(const std::string& line);

/// The search statistics of optimizing the query of `line` under its
/// config.
SearchStats LineSearchStats(const std::string& line);

}  // namespace testing
}  // namespace oodb

#endif  // OODB_TESTS_HARNESS_H_
