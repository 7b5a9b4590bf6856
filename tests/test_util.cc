#include "tests/test_util.h"

#include <algorithm>
#include <cmath>

#include "src/exec/reference.h"

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

const PlanNode* FindMergeExchange(const PlanNode& plan) {
  if (plan.op.kind == PhysOpKind::kExchange && plan.op.merge) return &plan;
  for (const PlanNodePtr& c : plan.children) {
    if (const PlanNode* f = FindMergeExchange(*c)) return f;
  }
  return nullptr;
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

std::vector<std::string> RowSeq(const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  for (const std::vector<Value>& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> SortedRows(
    const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out = RowSeq(rows);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectBatchAccountingMatches(const ExecStats& batched,
                                  const ExecStats& single,
                                  const std::vector<std::vector<Value>>& expect,
                                  bool exact_io) {
  const std::vector<std::string> want = SortedRows(expect);
  EXPECT_EQ(batched.rows, static_cast<int64_t>(expect.size()));
  EXPECT_EQ(single.rows, static_cast<int64_t>(expect.size()));
  EXPECT_EQ(SortedRows(batched.sample_rows), want) << "batch 1024";
  EXPECT_EQ(SortedRows(single.sample_rows), want) << "batch 1";
  EXPECT_EQ(batched.pages_read, single.pages_read);
  EXPECT_NEAR(batched.sim_cpu_s, single.sim_cpu_s,
              1e-12 * std::max(std::abs(batched.sim_cpu_s),
                               std::abs(single.sim_cpu_s)));
  if (exact_io) {
    EXPECT_EQ(batched.sim_io_s, single.sim_io_s);
  }
}

Oo7Options ParallelOo7Config() {
  Oo7Options o;
  o.complex_per_module = 3;
  o.base_per_complex = 5;
  o.components_per_base = 3;
  o.num_composite_parts = 25;
  o.atomic_per_composite = 8;
  o.num_build_dates = 10;
  o.num_doc_titles = 5;
  return o;
}

Oo7Instance* Oo7ParallelTest::instance_ = nullptr;

void Oo7ParallelTest::SetUpTestSuite() {
  auto r = MakeOo7(ParallelOo7Config());
  ASSERT_TRUE(r.ok()) << r.status();
  instance_ = new Oo7Instance(std::move(r).value());
}

void Oo7ParallelTest::TearDownTestSuite() {
  delete instance_;
  instance_ = nullptr;
}

PlannedQuery PlanQuery(Catalog* catalog, const std::string& text,
                       int max_dop) {
  PlannedQuery out;
  out.ctx.catalog = catalog;
  SortSpec order;
  int64_t limit = 0;
  auto logical = ParseAndSimplify(text, &out.ctx, &order, &limit);
  EXPECT_TRUE(logical.ok()) << logical.status() << "\n" << text;
  out.logical = *logical;
  OptimizerOptions opts;
  opts.max_dop = max_dop;
  opts.verify_plans = true;
  PhysProps required;
  required.sort = order;
  required.limit = limit;
  Optimizer opt(catalog, std::move(opts));
  auto planned = opt.Optimize(*out.logical, &out.ctx, required);
  EXPECT_TRUE(planned.ok()) << planned.status() << "\n" << text;
  EXPECT_TRUE(planned->stats.verify_error.empty())
      << text << "\n" << planned->stats.verify_error;
  out.plan = planned->plan;
  return out;
}

std::vector<std::string> Oo7ParallelTest::Reference(const Planned& p) {
  auto reference = EvaluateReference(*p.logical, &store(), p.ctx);
  EXPECT_TRUE(reference.ok()) << reference.status();
  return SortedRows(reference->rows);
}

}  // namespace testing

ZqlQueryPtr ParseZqlForTest(const std::string& text) {
  Result<ZqlQueryPtr> q = ParseZql(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q.ok() ? *q : nullptr;
}

}  // namespace oodb
