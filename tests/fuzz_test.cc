// Differential fuzzing: randomly generated ZQL queries are (a) evaluated
// by the reference interpreter directly on the logical algebra, and (b)
// optimized — under a randomly chosen rule configuration — and executed.
// The result multisets must match exactly. This exercises the parser,
// simplification, every transformation/implementation rule, the property
// machinery, and every execution operator against ground truth.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/exec/reference.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

constexpr double kScale = 0.02;

/// Random ZQL query generator over the paper schema. Generates queries
/// that are guaranteed to type-check; value pools are aligned with the
/// data generator so predicates have plausible hit rates.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    ranges_.clear();
    conjuncts_.clear();
    selects_.clear();

    // Root range.
    int root = static_cast<int>(rng_.Uniform(4));
    switch (root) {
      case 0:
        AddRange("Employee", "e", "Employees");
        break;
      case 1:
        AddRange("City", "c", "Cities");
        break;
      case 2:
        AddRange("Task", "t", "Tasks");
        break;
      default:
        AddRange("Department", "d", "Department");
        break;
    }

    // Optionally a second, joinable range.
    if (rng_.Bernoulli(0.4)) {
      if (HasVar("e") && !HasVar("d")) {
        AddRange("Department", "d", "Department");
        conjuncts_.push_back("e.dept == d");
      } else if (HasVar("c")) {
        AddRange("Country", "n", "Country");
        conjuncts_.push_back("c.country == n");
      } else if (HasVar("d")) {
        AddRange("Employee", "e", "Employees");
        conjuncts_.push_back("e.dept == d");
      }
    }
    // Optionally unnest task members.
    if (HasVar("t") && rng_.Bernoulli(0.6)) {
      ranges_.push_back("Employee m IN t.team_members");
      vars_ += 'm';
      if (rng_.Bernoulli(0.5)) {
        conjuncts_.push_back(std::string("m.name == \"") + EmpName() + "\"");
      }
    }

    // Per-variable scalar predicates and projections.
    if (HasVar("e")) {
      MaybePred({"e.age >= " + Int(20, 60), "e.age < " + Int(30, 70),
                 "e.name == \"" + EmpName() + "\"",
                 "e.salary >= " + Int(40000, 120000) + ".0"});
      MaybeSelect({"e.name", "e.age", "e.dept.name", "e.job.name"});
    }
    if (HasVar("c")) {
      MaybePred({"c.population >= " + Int(20000, 900000),
                 "c.mayor.name == \"" + PersonName() + "\"",
                 "c.country.name == \"Country" + Int(0, 2) + "\""});
      MaybeSelect({"c.name", "c.population", "c.mayor.name",
                   "c.country.name"});
    }
    if (HasVar("t")) {
      MaybePred({"t.time == " + Int(1, 12), "t.time >= " + Int(3, 10)});
      MaybeSelect({"t.name", "t.time"});
    }
    if (HasVar("d")) {
      MaybePred({"d.floor == " + Int(1, 10), "d.floor <= " + Int(2, 8),
                 "d.plant.location == \"Dallas\""});
      MaybeSelect({"d.name", "d.floor", "d.plant.location"});
    }
    if (HasVar("m")) {
      MaybeSelect({"m.name", "m.age"});
    }
    if (HasVar("n")) {
      MaybeSelect({"n.name"});
    }
    if (selects_.empty()) selects_.push_back(FirstVarPath());

    // Exercise the argument-transformation rules: negate a conjunct or
    // merge two into a disjunction.
    if (!conjuncts_.empty() && rng_.Bernoulli(0.3)) {
      size_t i = rng_.Uniform(conjuncts_.size());
      conjuncts_[i] = "!(" + conjuncts_[i] + ")";
    }
    if (conjuncts_.size() >= 2 && rng_.Bernoulli(0.3)) {
      std::string merged =
          "(" + conjuncts_[conjuncts_.size() - 2] + " || " +
          conjuncts_.back() + ")";
      conjuncts_.pop_back();
      conjuncts_.back() = std::move(merged);
    }

    std::string q = "SELECT " + ::oodb::Join(selects_, ", ") + " FROM " +
                    ::oodb::Join(ranges_, ", ");
    if (!conjuncts_.empty()) q += " WHERE " + ::oodb::Join(conjuncts_, " && ");
    if (rng_.Bernoulli(0.25)) {
      if (HasVar("e")) q += " ORDER BY e.age";
      else if (HasVar("c")) q += " ORDER BY c.population";
      else if (HasVar("t")) q += " ORDER BY t.time";
      else if (HasVar("d")) q += " ORDER BY d.floor";
    }
    return q + ";";
  }

  /// A random rule-ablation configuration.
  OptimizerOptions RandomConfig() {
    static const char* kToggles[] = {
        kRuleJoinCommute,  kRuleJoinAssoc,        kRuleMatToJoin,
        kRuleMatMatCommute, kRuleSelectMatCommute, kRuleSelectJoinPush,
        kRuleSelectJoinAbsorb, kImplIndexScan,
        kImplHybridHashJoin, kImplPointerJoin,
    };
    OptimizerOptions opts;
    for (const char* rule : kToggles) {
      if (rng_.Bernoulli(0.25)) opts.disabled_rules.push_back(rule);
    }
    if (rng_.Bernoulli(0.2)) opts.cost.assembly_window = 1;
    if (rng_.Bernoulli(0.2)) opts.enable_warm_start_assembly = true;
    if (rng_.Bernoulli(0.2)) opts.enable_merge_join = true;
    if (rng_.Bernoulli(0.3)) opts.enable_pruning = true;
    // Every fuzzed configuration doubles as a verifier false-positive probe.
    opts.verify_plans = true;
    return opts;
  }

 private:
  void AddRange(const char* type, const char* var, const char* coll) {
    ranges_.push_back(std::string(type) + " " + var + " IN " + coll);
    vars_ += var;
  }
  bool HasVar(const char* v) const {
    return vars_.find(v) != std::string::npos;
  }
  void MaybePred(std::vector<std::string> options) {
    if (rng_.Bernoulli(0.7)) {
      conjuncts_.push_back(options[rng_.Uniform(options.size())]);
    }
  }
  void MaybeSelect(std::vector<std::string> options) {
    if (rng_.Bernoulli(0.8)) {
      selects_.push_back(options[rng_.Uniform(options.size())]);
    }
  }
  std::string Int(int lo, int hi) {
    return std::to_string(rng_.UniformRange(lo, hi));
  }
  std::string EmpName() {
    int64_t k = rng_.UniformRange(0, 9);
    return k == 0 ? "Fred" : "E" + std::to_string(k);
  }
  std::string PersonName() {
    int64_t k = rng_.UniformRange(0, 9);
    return k == 0 ? "Joe" : "P" + std::to_string(k);
  }
  std::string FirstVarPath() {
    char v = vars_[0];
    return std::string(1, v) + ".name";
  }

  Rng rng_;
  std::string vars_;
  std::vector<std::string> ranges_;
  std::vector<std::string> conjuncts_;
  std::vector<std::string> selects_;
};

class FuzzTest : public ::testing::TestWithParam<int> {
 protected:
  static PaperDb* db_;
  static ObjectStore* store_;

  static void SetUpTestSuite() {
    db_ = new PaperDb(MakePaperCatalog(kScale));
    store_ = new ObjectStore(&db_->catalog);
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(*db_, store_, gen);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  static void TearDownTestSuite() {
    delete store_;
    delete db_;
  }

  static std::vector<std::string> SortedRows(
      const std::vector<std::vector<Value>>& rows) {
    std::vector<std::string> out;
    for (const std::vector<Value>& row : rows) {
      std::string s;
      for (const Value& v : row) {
        s += v.ToString();
        s += '|';
      }
      out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

PaperDb* FuzzTest::db_ = nullptr;
ObjectStore* FuzzTest::store_ = nullptr;

TEST_P(FuzzTest, OptimizedPlanMatchesReferenceSemantics) {
  QueryGen gen(0x9d5f + static_cast<uint64_t>(GetParam()) * 7919);
  std::string text = gen.Generate();
  SCOPED_TRACE(text);

  QueryContext ctx;
  ctx.catalog = &db_->catalog;
  SortSpec order;
  auto logical = ParseAndSimplify(text, &ctx, &order);
  ASSERT_TRUE(logical.ok()) << logical.status();

  // Ground truth: direct interpretation of the logical algebra (order-
  // insensitive — results are compared as sorted multisets).
  auto reference = EvaluateReference(**logical, store_, ctx);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Optimized plan under a random rule configuration.
  OptimizerOptions opts = gen.RandomConfig();
  std::string config;
  for (const std::string& d : opts.disabled_rules) config += d + " ";
  SCOPED_TRACE("disabled: " + config);
  PhysProps required;
  required.sort = order;
  Optimizer opt(&db_->catalog, opts);
  auto planned = opt.Optimize(**logical, &ctx, required);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_TRUE(planned->stats.verify_error.empty())
      << "verifier flagged the winning plan:\n"
      << planned->stats.verify_error << "\nplan:\n"
      << PrintPlan(*planned->plan, ctx);

  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  auto stats = ExecutePlan(*planned->plan, store_, &ctx, eo);
  ASSERT_TRUE(stats.ok()) << stats.status() << "\nplan:\n"
                          << PrintPlan(*planned->plan, ctx);

  EXPECT_EQ(stats->rows, static_cast<int64_t>(reference->rows.size()));
  EXPECT_EQ(SortedRows(stats->sample_rows), SortedRows(reference->rows))
      << "plan:\n"
      << PrintPlan(*planned->plan, ctx);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 150));

// Robustness sweep: the same generated queries run under a random fault
// policy and random tight budgets. Every outcome must be either OK with
// reference-identical rows, or one of the governor/fault status codes —
// never a crash, never an untyped error.
TEST_P(FuzzTest, FaultsAndBudgetsYieldOnlyTypedOutcomes) {
  QueryGen gen(0x7a11 + static_cast<uint64_t>(GetParam()) * 104729);
  std::string text = gen.Generate();
  SCOPED_TRACE(text);

  QueryContext ctx;
  ctx.catalog = &db_->catalog;
  SortSpec order;
  auto logical = ParseAndSimplify(text, &ctx, &order);
  ASSERT_TRUE(logical.ok()) << logical.status();

  // No-fault ground truth first (uncharged reads bypass the injector, but
  // the policy is installed only after this completes anyway).
  auto reference = EvaluateReference(**logical, store_, ctx);
  ASSERT_TRUE(reference.ok()) << reference.status();

  Rng rng(0xfa57 + static_cast<uint64_t>(GetParam()) * 31337);
  GovernorOptions gov;
  if (rng.Bernoulli(0.5)) gov.max_memo_mexprs = 1 + rng.Uniform(200);
  if (rng.Bernoulli(0.5)) gov.max_exec_rows = 1 + rng.Uniform(500);
  if (rng.Bernoulli(0.5)) gov.max_exec_pages = 1 + rng.Uniform(100);
  if (rng.Bernoulli(0.3)) gov.max_tracked_bytes = 1 + rng.Uniform(4096);
  if (rng.Bernoulli(0.3)) gov.max_phys_alternatives = 1 + rng.Uniform(100);
  gov.degrade_to_greedy = false;  // trips must surface as typed errors

  FaultPolicy faults;
  faults.seed = 0xbadd + static_cast<uint64_t>(GetParam());
  if (rng.Bernoulli(0.5)) faults.fail_every_nth_read = 1 + rng.Uniform(40);
  if (rng.Bernoulli(0.5)) faults.fail_probability = 0.05;
  store_->SetFaultPolicy(faults);

  QueryGovernor governor(gov);
  OptimizerOptions opts = gen.RandomConfig();
  opts.governor = gov.enabled() ? &governor : nullptr;
  PhysProps required;
  required.sort = order;
  Optimizer opt(&db_->catalog, opts);
  auto planned = opt.Optimize(**logical, &ctx, required);

  if (!planned.ok()) {
    store_->SetFaultPolicy(FaultPolicy{});  // restore for later tests
    EXPECT_TRUE(IsGovernorStatus(planned.status().code()))
        << planned.status();
    return;
  }
  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.governor = opts.governor;
  auto stats = ExecutePlan(*planned->plan, store_, &ctx, eo);
  store_->SetFaultPolicy(FaultPolicy{});  // restore for later tests

  if (!stats.ok()) {
    EXPECT_TRUE(IsGovernorStatus(stats.status().code())) << stats.status();
    return;
  }
  EXPECT_EQ(stats->rows, static_cast<int64_t>(reference->rows.size()));
  EXPECT_EQ(SortedRows(stats->sample_rows), SortedRows(reference->rows))
      << "plan:\n"
      << PrintPlan(*planned->plan, ctx);
}

}  // namespace
}  // namespace oodb
