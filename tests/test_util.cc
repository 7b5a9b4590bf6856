#include "tests/test_util.h"

#include <algorithm>
#include <cmath>

namespace oodb {
namespace testing {

bool PlanContains(const PlanNode& plan, const QueryContext& ctx,
                  const std::string& needle) {
  for (const std::string& op : PlanOpStrings(plan, ctx)) {
    if (op.find(needle) != std::string::npos) return true;
  }
  return false;
}

static void CollectKinds(const PlanNode& plan, std::vector<PhysOpKind>* out) {
  out->push_back(plan.op.kind);
  for (const PlanNodePtr& c : plan.children) CollectKinds(*c, out);
}

std::vector<PhysOpKind> PlanKinds(const PlanNode& plan) {
  std::vector<PhysOpKind> out;
  CollectKinds(plan, &out);
  return out;
}

OptimizedQuery MustOptimize(int n, const PaperDb& db, QueryContext* ctx,
                            OptimizerOptions opts) {
  Result<LogicalExprPtr> logical = BuildPaperQuery(n, db, ctx);
  EXPECT_TRUE(logical.ok()) << logical.status();
  if (!logical.ok()) std::abort();
  // Tests always run the static verifier, whatever the build default: every
  // plan any test optimizes doubles as a verifier false-positive probe.
  opts.verify_plans = true;
  Optimizer opt(&db.catalog, std::move(opts));
  Result<OptimizedQuery> r = opt.Optimize(**logical, ctx);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) std::abort();
  EXPECT_TRUE(r->stats.verify_error.empty())
      << "paper query " << n << " failed verification:\n"
      << r->stats.verify_error;
  return *std::move(r);
}

namespace {

std::vector<std::string> SortedRowStrings(
    const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  for (const std::vector<Value>& row : rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void ExpectBatchAccountingMatches(const ExecStats& batched,
                                  const ExecStats& single,
                                  const std::vector<std::vector<Value>>& expect,
                                  bool exact_io) {
  const std::vector<std::string> want = SortedRowStrings(expect);
  EXPECT_EQ(batched.rows, static_cast<int64_t>(expect.size()));
  EXPECT_EQ(single.rows, static_cast<int64_t>(expect.size()));
  EXPECT_EQ(SortedRowStrings(batched.sample_rows), want) << "batch 1024";
  EXPECT_EQ(SortedRowStrings(single.sample_rows), want) << "batch 1";
  EXPECT_EQ(batched.pages_read, single.pages_read);
  EXPECT_NEAR(batched.sim_cpu_s, single.sim_cpu_s,
              1e-12 * std::max(std::abs(batched.sim_cpu_s),
                               std::abs(single.sim_cpu_s)));
  if (exact_io) {
    EXPECT_EQ(batched.sim_io_s, single.sim_io_s);
  }
}

}  // namespace testing

ZqlQueryPtr ParseZqlForTest(const std::string& text) {
  Result<ZqlQueryPtr> q = ParseZql(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q.ok() ? *q : nullptr;
}

}  // namespace oodb
