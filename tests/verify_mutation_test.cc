// Mutation self-tests for the static verifier: seed a specific corruption
// into an otherwise-valid plan or memo, and assert the verifier rejects it
// with the *right* invariant id and an operator path. Each corruption
// models a real optimizer-bug class (rebound assembly steps, swapped join
// inputs, phantom sort orders, illegal Exchange plants, cost drift). The
// un-mutated baseline must verify clean first, so every test is also a
// false-positive probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/exec/tuple.h"
#include "src/physical/enforcers.h"
#include "src/physical/impl_rules.h"
#include "src/rules/transformations.h"
#include "src/verify/verify.h"
#include "src/volcano/search.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

/// A deep copy of a plan with mutable access to every node, preorder.
/// PlanNodePtr is shared_ptr<const ...>, so mutation requires cloning.
struct MutablePlan {
  std::shared_ptr<PlanNode> root;
  std::vector<PlanNode*> nodes;  // preorder; nodes[0] == root.get()

  PlanNode* Find(PhysOpKind kind) {
    for (PlanNode* n : nodes) {
      if (n->op.kind == kind) return n;
    }
    return nullptr;
  }
};

std::shared_ptr<PlanNode> CloneRec(const PlanNode& node,
                                   std::vector<PlanNode*>* out) {
  auto copy = std::make_shared<PlanNode>(node);
  out->push_back(copy.get());
  copy->children.clear();
  for (const PlanNodePtr& c : node.children) {
    copy->children.push_back(CloneRec(*c, out));
  }
  return copy;
}

MutablePlan Clone(const PlanNode& plan) {
  MutablePlan out;
  out.root = CloneRec(plan, &out.nodes);
  return out;
}

class VerifyMutationTest : public ::testing::Test {
 protected:
  VerifyMutationTest() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
  }

  /// File Scan Cities:c -> Assembly{c.mayor:m} -> Filter m.name=="Joe",
  /// hand-built with exact properties and additive costs so every mutation
  /// flips exactly one invariant. Binding ids are remembered in c_/m_.
  std::shared_ptr<PlanNode> BuildCityChain() {
    c_ = ctx_.bindings.AddGet("c", db_.city);
    m_ = ctx_.bindings.AddMat("c.mayor", db_.person, c_, db_.city_mayor);

    PhysicalOp scan;
    scan.kind = PhysOpKind::kFileScan;
    scan.coll = CollectionId::Set("Cities", db_.city);
    scan.binding = c_;
    LogicalProps scan_props;
    scan_props.scope = BindingSet::Of(c_);
    scan_props.card = 1000;
    scan_props.tuple_bytes = 64;
    PhysProps scan_delivered;
    scan_delivered.in_memory = BindingSet::Of(c_);
    PlanNodePtr plan = PlanNode::Make(scan, {}, scan_props, scan_delivered,
                                      Cost{1.0, 0.5});

    PhysicalOp assemble;
    assemble.kind = PhysOpKind::kAssembly;
    assemble.mats = {MatStep{c_, db_.city_mayor, m_}};
    LogicalProps asm_props = scan_props;
    asm_props.scope.Add(m_);
    asm_props.tuple_bytes = 128;
    PhysProps asm_delivered;
    asm_delivered.in_memory = asm_props.scope;
    plan = PlanNode::Make(assemble, {plan}, asm_props, asm_delivered,
                          Cost{2.0, 0.25});

    PhysicalOp filter;
    filter.kind = PhysOpKind::kFilter;
    filter.pred = ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe");
    LogicalProps f_props = asm_props;
    f_props.card = 10;
    plan = PlanNode::Make(filter, {plan}, f_props, asm_delivered,
                          Cost{0.0, 0.125});
    return std::const_pointer_cast<PlanNode>(plan);
  }

  void ExpectClean(const PlanNode& plan) {
    VerifyReport report = VerifyPlanReport(plan, ctx_);
    ASSERT_TRUE(report.ok()) << "baseline not clean:\n" << report.ToString();
  }

  /// Asserts the plan is rejected with `id` and that some violation with
  /// that id carries a non-empty operator path.
  void ExpectViolation(const PlanNode& plan, const char* id) {
    VerifyReport report = VerifyPlanReport(plan, ctx_);
    ASSERT_FALSE(report.ok()) << "mutation not detected (want " << id << ")";
    EXPECT_TRUE(report.Has(id)) << "want [" << id << "], got:\n"
                                << report.ToString();
    for (const VerifyViolation& v : report.violations()) {
      if (v.invariant == id) {
        EXPECT_FALSE(v.path.empty());
        EXPECT_FALSE(v.detail.empty());
      }
    }
    // The Status projection must carry a diagnostic, not a bare code.
    EXPECT_FALSE(VerifyPlan(plan, ctx_).ok());
  }

  PaperDb db_;
  QueryContext ctx_;
  BindingId c_ = kInvalidBinding;
  BindingId m_ = kInvalidBinding;
};

// --- structural mutations on the hand-built chain ---

TEST_F(VerifyMutationTest, BaselineChainIsClean) {
  ExpectClean(*BuildCityChain());
}

TEST_F(VerifyMutationTest, AssemblyStepFieldRebindIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  // The step now claims to load the mayor via city.country — a different
  // derivation than the binding table records for m.
  p.Find(PhysOpKind::kAssembly)->op.mats[0].field = db_.city_country;
  ExpectViolation(*p.root, invariant::kPlanMatStep);
}

TEST_F(VerifyMutationTest, SplicedOutAssemblyIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  // Drop the Assembly: the Filter now reads m.name with m never loaded.
  PlanNode* filter = p.Find(PhysOpKind::kFilter);
  PlanNode* assembly = p.Find(PhysOpKind::kAssembly);
  filter->children[0] = assembly->children[0];
  VerifyReport report = VerifyPlanReport(*p.root, ctx_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(invariant::kPlanMemory)) << report.ToString();
  EXPECT_TRUE(report.Has(invariant::kPlanLoad)) << report.ToString();
}

TEST_F(VerifyMutationTest, OutOfScopePredicateRebindIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  BindingId stranger = ctx_.bindings.AddGet("stranger", db_.person);
  p.Find(PhysOpKind::kFilter)->op.pred =
      ScalarExpr::AttrEqStr(stranger, db_.person_name, "Joe");
  ExpectViolation(*p.root, invariant::kExprScope);
}

TEST_F(VerifyMutationTest, CmpTypeMismatchInPlanPredicateIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  p.Find(PhysOpKind::kFilter)->op.pred = ScalarExpr::Cmp(
      CmpOp::kEq, ScalarExpr::Attr(m_, db_.person_name),
      ScalarExpr::Const(Value::Int(42)));
  ExpectViolation(*p.root, invariant::kExprCmpType);
}

TEST_F(VerifyMutationTest, NullFilterPredicateIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  p.Find(PhysOpKind::kFilter)->op.pred = nullptr;
  ExpectViolation(*p.root, invariant::kPlanOpField);
}

TEST_F(VerifyMutationTest, WrongArityIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  p.Find(PhysOpKind::kFilter)->children.clear();
  ExpectViolation(*p.root, invariant::kPlanArity);
}

TEST_F(VerifyMutationTest, ScopeDriftIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  // The scan's scope gains a binding no input or argument justifies.
  p.Find(PhysOpKind::kFileScan)->logical.scope.Add(m_);
  ExpectViolation(*p.root, invariant::kPlanScope);
}

TEST_F(VerifyMutationTest, PhantomSortClaimIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  // A file scan reads members in page order; it cannot deliver a sort.
  p.Find(PhysOpKind::kFileScan)->delivered.sort =
      SortSpec{c_, db_.city_name};
  ExpectViolation(*p.root, invariant::kPlanSort);
}

TEST_F(VerifyMutationTest, SortKeyMismatchIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  // Plant a correct Sort enforcer on top, then claim a different order
  // than the operator's key establishes.
  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = SortSpec{c_, db_.city_name};
  PhysProps delivered = p.root->delivered;
  delivered.sort = sort.sort;
  PlanNodePtr sorted = PlanNode::Make(sort, {p.root}, p.root->logical,
                                      delivered, Cost{0.5, 0.5});
  MutablePlan s = Clone(*sorted);
  ExpectClean(*s.root);
  s.Find(PhysOpKind::kSort)->delivered.sort = SortSpec{c_, db_.city_population};
  ExpectViolation(*s.root, invariant::kPlanSort);
}

// --- cost mutations ---

TEST_F(VerifyMutationTest, TotalCostDriftIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  p.root->total_cost.io_s += 1.0;
  ExpectViolation(*p.root, invariant::kPlanCostTotal);
}

TEST_F(VerifyMutationTest, NonFiniteCostIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  p.Find(PhysOpKind::kAssembly)->local_cost.cpu_s =
      std::numeric_limits<double>::quiet_NaN();
  ExpectViolation(*p.root, invariant::kPlanCostFinite);
}

TEST_F(VerifyMutationTest, NegativeLocalCostIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  PlanNode* scan = p.Find(PhysOpKind::kFileScan);
  scan->local_cost.io_s = -1.0;
  scan->total_cost.io_s -= 2.0;  // keep additivity; isolate the sign check
  p.Find(PhysOpKind::kAssembly)->total_cost.io_s -= 2.0;
  p.Find(PhysOpKind::kFilter)->total_cost.io_s -= 2.0;
  ExpectViolation(*p.root, invariant::kPlanCostNegative);
}

// --- delivered-property mutations ---

TEST_F(VerifyMutationTest, UnloadedInMemoryClaimIsRejected) {
  MutablePlan p = Clone(*BuildCityChain());
  ExpectClean(*p.root);
  // The scan claims the mayor is in memory; nothing below loads it (and it
  // is not even in the scan's scope).
  p.Find(PhysOpKind::kFileScan)->delivered.in_memory.Add(m_);
  ExpectViolation(*p.root, invariant::kPlanMemory);
}

TEST_F(VerifyMutationTest, RefBindingInMemoryClaimIsRejected) {
  // An Unnest target is a bare reference: not loadable, so claiming it
  // present-in-memory is meaningless. Build Scan Tasks -> Unnest members.
  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  BindingId r =
      ctx_.bindings.AddUnnest("t.members", db_.employee, t,
                              db_.task_team_members);
  PhysicalOp scan;
  scan.kind = PhysOpKind::kFileScan;
  scan.coll = CollectionId::Set("Tasks", db_.task);
  scan.binding = t;
  LogicalProps sp;
  sp.scope = BindingSet::Of(t);
  sp.card = 100;
  sp.tuple_bytes = 64;
  PhysProps sd;
  sd.in_memory = BindingSet::Of(t);
  PlanNodePtr plan = PlanNode::Make(scan, {}, sp, sd, Cost{1.0, 0.5});

  PhysicalOp unnest;
  unnest.kind = PhysOpKind::kAlgUnnest;
  unnest.source = t;
  unnest.field = db_.task_team_members;
  unnest.target = r;
  LogicalProps up = sp;
  up.scope.Add(r);
  up.card = 300;
  PlanNodePtr unnested =
      PlanNode::Make(unnest, {plan}, up, sd, Cost{0.0, 0.25});
  ExpectClean(*unnested);

  MutablePlan p = Clone(*unnested);
  p.Find(PhysOpKind::kAlgUnnest)->delivered.in_memory.Add(r);
  ExpectViolation(*p.root, invariant::kPlanMemoryScope);

  // And rebinding the unnest to a non-set field breaks its derivation.
  MutablePlan q = Clone(*unnested);
  q.Find(PhysOpKind::kAlgUnnest)->op.field = db_.task_name;
  ExpectViolation(*q.root, invariant::kPlanUnnest);
}

// --- fused-filter mutations ---

TEST_F(VerifyMutationTest, FusedFilterCompileDriftIsRejected) {
  // The executor fuses a collapsed Filter chain into the scan below only
  // after checking that the *compiled* steps — whose operands may have been
  // re-oriented during analysis — still reconstruct the chain's conjunct
  // multiset (VerifyFusedConjuncts against ReconstructedPredicate). Baseline
  // first: a clean compile of a chain containing a reversed conjunct passes.
  // Then each seeded drift a compiler bug could plausibly introduce must be
  // rejected with the fusion invariant.
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  std::vector<ScalarExprPtr> chain = {
      ScalarExpr::AttrCmpInt(c, db_.city_population, CmpOp::kGt, 1000),
      // Written const-cmp-attr: analysis reverses the operands into a
      // canonical attr-cmp-const step; reconstruction must restore the
      // source orientation or the structural match fails.
      ScalarExpr::Cmp(CmpOp::kLt, ScalarExpr::Const(Value::Int(500)),
                      ScalarExpr::Attr(c, db_.city_population)),
  };
  std::vector<ScalarExprPtr> conjuncts;
  for (const ScalarExprPtr& p : chain) {
    for (ScalarExprPtr& e : ScalarExpr::SplitConjuncts(p)) {
      conjuncts.push_back(std::move(e));
    }
  }
  FilterProgram prog =
      FilterProgram::Analyze(ScalarExpr::CombineConjuncts(std::move(conjuncts)));
  ASSERT_TRUE(prog.specialized());
  EXPECT_TRUE(VerifyFusedConjuncts(chain, prog.ReconstructedPredicate()).ok());

  auto expect_fusion_violation = [&](const ScalarExprPtr& fused) {
    Status s = VerifyFusedConjuncts(chain, fused);
    ASSERT_FALSE(s.ok()) << "fused-filter drift not detected";
    EXPECT_NE(s.message().find(invariant::kPlanFusion), std::string::npos)
        << s.message();
  };

  // The compile dropped a conjunct.
  expect_fusion_violation(chain[0]);

  // A step's constant drifted (1000 -> 1001).
  {
    std::vector<ScalarExprPtr> drifted;
    drifted.push_back(
        ScalarExpr::AttrCmpInt(c, db_.city_population, CmpOp::kGt, 1001));
    drifted.push_back(chain[1]);
    expect_fusion_violation(ScalarExpr::CombineConjuncts(std::move(drifted)));
  }

  // Orientation not restored: the reversed conjunct reconstructed in
  // canonical attr-first form is a rewrite of the chain's conjunct, not a
  // structural match for it.
  {
    std::vector<ScalarExprPtr> reoriented;
    reoriented.push_back(chain[0]);
    reoriented.push_back(
        ScalarExpr::AttrCmpInt(c, db_.city_population, CmpOp::kGt, 500));
    expect_fusion_violation(ScalarExpr::CombineConjuncts(std::move(reoriented)));
  }
}

// --- join mutations ---

TEST_F(VerifyMutationTest, HashJoinMutationsAreRejected) {
  // Cities c (build, has the c.country reference) x Country n (probe, the
  // identified OID population): the legal orientation is n on the BUILD
  // side for ref-vs-OID equality, so build it legally first with n left.
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  BindingId n = ctx_.bindings.AddGet("n", db_.country);
  auto scan = [&](CollectionId coll, BindingId b, double card) {
    PhysicalOp op;
    op.kind = PhysOpKind::kFileScan;
    op.coll = coll;
    op.binding = b;
    LogicalProps props;
    props.scope = BindingSet::Of(b);
    props.card = card;
    props.tuple_bytes = 64;
    PhysProps delivered;
    delivered.in_memory = BindingSet::Of(b);
    return PlanNode::Make(op, {}, props, delivered, Cost{1.0, 0.5});
  };
  // Countries have no named set in the catalog, only a type extent.
  PlanNodePtr left = scan(CollectionId::Extent(db_.country), n, 50);
  PlanNodePtr right = scan(CollectionId::Set("Cities", db_.city), c, 1000);
  PhysicalOp join;
  join.kind = PhysOpKind::kHybridHashJoin;
  join.pred = ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Self(n),
                              ScalarExpr::Attr(c, db_.city_country));
  LogicalProps jp;
  jp.scope = BindingSet::Of(n).Union(BindingSet::Of(c));
  jp.card = 1000;
  jp.tuple_bytes = 128;
  PhysProps jd;
  jd.in_memory = jp.scope;
  PlanNodePtr joined =
      PlanNode::Make(join, {left, right}, jp, jd, Cost{0.0, 2.0});
  ExpectClean(*joined);

  // Swapping the children puts the OID population on the probe side — the
  // classic "who builds" bug hybrid hash join cannot execute correctly.
  MutablePlan swapped = Clone(*joined);
  std::swap(swapped.root->children[0], swapped.root->children[1]);
  ExpectViolation(*swapped.root, invariant::kPlanHashJoinOrientation);

  // A non-equality conjunct cannot be hashed.
  MutablePlan ranged = Clone(*joined);
  ranged.root->op.pred =
      ScalarExpr::Cmp(CmpOp::kLt, ScalarExpr::Attr(n, db_.country_name),
                      ScalarExpr::Attr(c, db_.city_name));
  ExpectViolation(*ranged.root, invariant::kPlanHashJoinPred);

  // Overlapping child scopes: the "join" reads the same table twice.
  MutablePlan overlap = Clone(*joined);
  overlap.root->op.kind = PhysOpKind::kNestedLoops;
  overlap.root->op.pred = ScalarExpr::Const(Value::Int(1));
  overlap.root->children[0] = overlap.root->children[1];
  overlap.root->logical.scope = BindingSet::Of(c);
  overlap.root->delivered.in_memory = BindingSet::Of(c);
  ExpectViolation(*overlap.root, invariant::kPlanJoinOverlap);
}

// --- Exchange mutations ---

TEST_F(VerifyMutationTest, ExchangeMutationsAreRejected) {
  std::shared_ptr<PlanNode> chain = BuildCityChain();
  PhysicalOp ex;
  ex.kind = PhysOpKind::kExchange;
  ex.dop = 4;
  ex.partition_binding = c_;
  PhysProps delivered = chain->delivered;
  delivered.sort = SortSpec{};
  // Exchange local cost may be negative on cpu (the parallel speedup); keep
  // it simple and additive here.
  PlanNodePtr root = PlanNode::Make(ex, {chain}, chain->logical, delivered,
                                    Cost{0.0, -0.05});
  ExpectClean(*root);

  // dop < 2 is not an exchange.
  MutablePlan p1 = Clone(*root);
  p1.Find(PhysOpKind::kExchange)->op.dop = 1;
  ExpectViolation(*p1.root, invariant::kPlanExchange);

  // Partitioning on a binding that is not the driver scan's.
  MutablePlan p2 = Clone(*root);
  p2.Find(PhysOpKind::kExchange)->op.partition_binding = m_;
  ExpectViolation(*p2.root, invariant::kPlanExchange);

  // Exchange below a Filter: only the root (or a root Sort chain) is legal.
  MutablePlan p3 = Clone(*root);
  PhysicalOp filter;
  filter.kind = PhysOpKind::kFilter;
  filter.pred = ScalarExpr::AttrEqStr(c_, db_.city_name, "Lyon");
  PlanNodePtr wrapped =
      PlanNode::Make(filter, {p3.root}, p3.root->logical, p3.root->delivered,
                     Cost{0.0, 0.01});
  ExpectViolation(*wrapped, invariant::kPlanExchange);

  // Exchange over an ordered input destroys a paid-for delivery.
  MutablePlan p4 = Clone(*root);
  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = SortSpec{c_, db_.city_name};
  PlanNode* ex_node = p4.Find(PhysOpKind::kExchange);
  PhysProps sorted_delivery = ex_node->children[0]->delivered;
  sorted_delivery.sort = sort.sort;
  ex_node->children[0] =
      PlanNode::Make(sort, {ex_node->children[0]}, ex_node->children[0]->logical,
                     sorted_delivery, Cost{0.5, 0.5});
  ExpectViolation(*p4.root, invariant::kPlanExchange);
}

// --- order- and limit-property mutations ---

TEST_F(VerifyMutationTest, MultiKeyOrderMutationsAreRejected) {
  std::shared_ptr<PlanNode> chain = BuildCityChain();
  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = SortSpec({SortKey{c_, db_.city_name, false},
                        SortKey{c_, db_.city_population, true}});
  PhysProps delivered = chain->delivered;
  delivered.sort = sort.sort;
  PlanNodePtr root = PlanNode::Make(sort, {chain}, chain->logical, delivered,
                                    Cost{0.5, 0.5});
  ExpectClean(*root);

  // Direction flip: the claim promises the minor key ascending while the
  // operator sorts it descending.
  MutablePlan p1 = Clone(*root);
  p1.root->delivered.sort.keys[1].desc = false;
  ExpectViolation(*p1.root, invariant::kPlanSort);

  // Non-prefix claim: the minor key alone is not established.
  MutablePlan p2 = Clone(*root);
  p2.root->delivered.sort = SortSpec{c_, db_.city_population, true};
  ExpectViolation(*p2.root, invariant::kPlanSort);

  // Partial sort assuming a leading-key run structure the input (a page-
  // order file scan chain) does not deliver.
  MutablePlan p3 = Clone(*root);
  p3.Find(PhysOpKind::kSort)->op.sort_prefix = 1;
  ExpectViolation(*p3.root, invariant::kPlanSort);
}

TEST_F(VerifyMutationTest, TopKMutationsAreRejected) {
  std::shared_ptr<PlanNode> chain = BuildCityChain();
  PhysicalOp topk;
  topk.kind = PhysOpKind::kTopK;
  topk.sort = SortSpec{c_, db_.city_name};
  topk.limit = 10;
  PhysProps delivered = chain->delivered;
  delivered.sort = topk.sort;
  delivered.limit = 10;
  LogicalProps props = chain->logical;
  props.card = 10;
  PlanNodePtr root =
      PlanNode::Make(topk, {chain}, props, delivered, Cost{0.1, 0.1});
  ExpectClean(*root);

  // A top-k with no positive bound is an unbounded heap.
  MutablePlan p1 = Clone(*root);
  p1.Find(PhysOpKind::kTopK)->op.limit = 0;
  ExpectViolation(*p1.root, invariant::kPlanTopK);

  // Claimed row limit differs from the operator's bound.
  MutablePlan p2 = Clone(*root);
  p2.root->delivered.limit = 5;
  ExpectViolation(*p2.root, invariant::kPlanTopK);

  // A phantom limit on an operator that neither truncates nor relays.
  MutablePlan p3 = Clone(*root);
  p3.Find(PhysOpKind::kFilter)->delivered.limit = 10;
  ExpectViolation(*p3.root, invariant::kPlanTopK);
}

TEST_F(VerifyMutationTest, MergeExchangeMutationsAreRejected) {
  std::shared_ptr<PlanNode> chain = BuildCityChain();
  // Worker plan sorts its slice; the merging exchange interleaves the
  // sorted streams back into one.
  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = SortSpec{c_, db_.city_name};
  PhysProps sorted = chain->delivered;
  sorted.sort = sort.sort;
  PlanNodePtr worker =
      PlanNode::Make(sort, {chain}, chain->logical, sorted, Cost{0.5, 0.5});

  PhysicalOp ex;
  ex.kind = PhysOpKind::kExchange;
  ex.dop = 4;
  ex.partition_binding = c_;
  ex.merge = true;
  ex.sort = sort.sort;
  PlanNodePtr root =
      PlanNode::Make(ex, {worker}, worker->logical, sorted, Cost{0.0, -0.05});
  ExpectClean(*root);

  // Merge keys the worker plan does not deliver sorted.
  MutablePlan p1 = Clone(*root);
  p1.Find(PhysOpKind::kExchange)->op.sort =
      SortSpec{c_, db_.city_population};
  ExpectViolation(*p1.root, invariant::kPlanExchange);

  // A merging exchange with no merge keys has nothing to merge by.
  MutablePlan p2 = Clone(*root);
  p2.Find(PhysOpKind::kExchange)->op.sort = SortSpec{};
  ExpectViolation(*p2.root, invariant::kPlanExchange);

  // Demoted to a plain exchange, the same plant destroys the worker-paid
  // order (and the sort claim above it becomes phantom).
  MutablePlan p3 = Clone(*root);
  p3.Find(PhysOpKind::kExchange)->op.merge = false;
  ExpectViolation(*p3.root, invariant::kPlanExchange);
}

// --- index-scan mutations (on a real optimized plan) ---

TEST_F(VerifyMutationTest, IndexScanMutationsAreRejected) {
  // Paper query 2 collapses to an index scan over cities_mayor_name.
  QueryContext ctx;
  ctx.catalog = &db_.catalog;
  OptimizedQuery q = testing::MustOptimize(2, db_, &ctx);
  ASSERT_GE(CountOps(*q.plan, PhysOpKind::kIndexScan), 1);
  ctx_ = std::move(ctx);  // mutations verify against the query's context

  // Key predicate compares a non-key field: the index returns wrong rows.
  MutablePlan p1 = Clone(*q.plan);
  PlanNode* scan = p1.Find(PhysOpKind::kIndexScan);
  ASSERT_NE(scan, nullptr);
  const ScalarExpr& key = *scan->op.index_pred;
  BindingId key_binding =
      key.children()[0]->kind() == ScalarExpr::Kind::kAttr
          ? key.children()[0]->binding()
          : key.children()[1]->binding();
  p1.Find(PhysOpKind::kIndexScan)->op.index_pred =
      ScalarExpr::AttrEqInt(key_binding, db_.person_age, 44);
  ExpectViolation(*p1.root, invariant::kPlanIndex);

  // Unknown index name.
  MutablePlan p2 = Clone(*q.plan);
  p2.Find(PhysOpKind::kIndexScan)->op.index_name = "no_such_index";
  ExpectViolation(*p2.root, invariant::kPlanIndex);
}

// --- memo mutations ---

class MemoMutationTest : public ::testing::Test {
 protected:
  MemoMutationTest() : db_(MakePaperCatalog()) { ctx_.catalog = &db_.catalog; }

  /// Runs the full search for paper query `n`, leaving the memo (with
  /// winners) in engine-owned state exposed for corruption.
  void Search(int n) {
    Result<LogicalExprPtr> logical = BuildPaperQuery(n, db_, &ctx_);
    ASSERT_TRUE(logical.ok()) << logical.status();
    cm_ = std::make_unique<CostModel>(CostModelOptions{});
    engine_ = std::make_unique<SearchEngine>(&ctx_, cm_.get(), &opts_);
    for (auto& rule : MakeDefaultTransformations()) {
      engine_->AddTransformation(std::move(rule));
    }
    for (auto& rule : MakeDefaultImplRules()) {
      engine_->AddImplRule(std::move(rule));
    }
    for (auto& enf : MakeDefaultEnforcers()) {
      engine_->AddEnforcer(std::move(enf));
    }
    SearchStats stats;
    Result<PlanNodePtr> plan =
        engine_->Optimize(**logical, PhysProps{}, &stats);
    ASSERT_TRUE(plan.ok()) << plan.status();
    VerifyReport baseline = VerifyMemoReport(engine_->memo());
    ASSERT_TRUE(baseline.ok()) << baseline.ToString();
  }

  Memo& memo() { return engine_->memo(); }

  void ExpectMemoViolation(const char* id) {
    VerifyReport report = VerifyMemoReport(memo());
    ASSERT_FALSE(report.ok()) << "memo corruption not detected (want " << id
                              << ")";
    EXPECT_TRUE(report.Has(id)) << "want [" << id << "], got:\n"
                                << report.ToString();
    EXPECT_FALSE(VerifyMemo(memo()).ok());
  }

  PaperDb db_;
  QueryContext ctx_;
  OptimizerOptions opts_;
  std::unique_ptr<CostModel> cm_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(MemoMutationTest, DanglingChildGroupIsRejected) {
  Search(2);
  for (MExprId id = 0; id < memo().num_mexprs(); ++id) {
    if (!memo().mexpr(id).children.empty()) {
      memo().mutable_mexpr(id).children[0] = 9999;
      break;
    }
  }
  ExpectMemoViolation(invariant::kMemoDanglingGroup);
}

TEST_F(MemoMutationTest, GroupScopeDriftIsRejected) {
  Search(2);
  memo().mutable_group(0).props.scope.Add(63);
  ExpectMemoViolation(invariant::kMemoScopeDrift);
}

TEST_F(MemoMutationTest, GroupCardinalityDriftIsRejected) {
  Search(4);
  memo().mutable_group(0).props.card *= 2.0;
  ExpectMemoViolation(invariant::kMemoCardDrift);
}

TEST_F(MemoMutationTest, SelectOverSelectIsRejected) {
  // Q4 filters both ranges: its memo has groups whose only expression is
  // a Select. Re-pointing another Select at one plants a two-Select stack.
  Search(4);
  GroupId selects_only = kInvalidGroup;
  MExprId other = kInvalidMExpr;
  for (MExprId id = 0; id < memo().num_mexprs(); ++id) {
    const LogicalMExpr& m = memo().mexpr(id);
    if (m.op.kind != LogicalOpKind::kSelect) continue;
    const Group& g = memo().group(m.group);
    bool only = std::all_of(g.mexprs.begin(), g.mexprs.end(), [&](MExprId x) {
      return memo().mexpr(x).op.kind == LogicalOpKind::kSelect;
    });
    if (only && selects_only == kInvalidGroup) {
      selects_only = memo().Find(m.group);
    } else if (!only) {
      other = id;
    }
  }
  ASSERT_NE(selects_only, kInvalidGroup);
  ASSERT_NE(other, kInvalidMExpr);
  memo().mutable_mexpr(other).children[0] = selects_only;
  ExpectMemoViolation(invariant::kMemoSelectCanonical);
}

TEST_F(MemoMutationTest, RepeatedSelectConjunctIsRejected) {
  Search(4);
  for (MExprId id = 0; id < memo().num_mexprs(); ++id) {
    LogicalMExpr& m = memo().mutable_mexpr(id);
    if (m.op.kind != LogicalOpKind::kSelect) continue;
    m.op.pred = ScalarExpr::And({m.op.pred, m.op.pred});
    break;
  }
  ExpectMemoViolation(invariant::kMemoSelectCanonical);
}

TEST_F(MemoMutationTest, NegativeCardinalityIsRejected) {
  Search(2);
  memo().mutable_group(0).props.card = -5.0;
  ExpectMemoViolation(invariant::kMemoCard);
}

TEST_F(MemoMutationTest, InProgressWinnerIsRejected) {
  Search(2);
  bool mutated = false;
  for (GroupId g = 0; g < memo().num_raw_groups() && !mutated; ++g) {
    if (memo().Find(g) != g) continue;
    Group& group = memo().mutable_group(g);
    if (!group.winners.empty()) {
      group.winners.begin()->second.in_progress = true;
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated) << "search left no winners to corrupt";
  ExpectMemoViolation(invariant::kMemoWinnerInProgress);
}

TEST_F(MemoMutationTest, NonFiniteWinnerBoundIsRejected) {
  Search(2);
  bool mutated = false;
  for (GroupId g = 0; g < memo().num_raw_groups() && !mutated; ++g) {
    if (memo().Find(g) != g) continue;
    Group& group = memo().mutable_group(g);
    if (!group.winners.empty()) {
      group.winners.begin()->second.lower_bound =
          std::numeric_limits<double>::infinity();
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectMemoViolation(invariant::kMemoWinnerCost);
}

TEST_F(MemoMutationTest, RekeyedWinnerIsRejected) {
  Search(2);
  // File a winner under a stricter requirement than its plan delivers:
  // require binding 63 in memory, which nothing delivers.
  bool mutated = false;
  for (GroupId g = 0; g < memo().num_raw_groups() && !mutated; ++g) {
    if (memo().Find(g) != g) continue;
    Group& group = memo().mutable_group(g);
    for (auto& [required, winner] : group.winners) {
      if (winner.plan == nullptr) continue;
      PhysProps stricter = required;
      stricter.in_memory.Add(63);
      Winner moved = winner;
      group.winners.erase(required);
      group.winners.emplace(stricter, std::move(moved));
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated) << "search left no winner plans to corrupt";
  ExpectMemoViolation(invariant::kMemoWinnerProps);
}

TEST_F(MemoMutationTest, WinnerCostDriftIsRejected) {
  Search(1);
  bool mutated = false;
  for (GroupId g = 0; g < memo().num_raw_groups() && !mutated; ++g) {
    if (memo().Find(g) != g) continue;
    Group& group = memo().mutable_group(g);
    for (auto& [required, winner] : group.winners) {
      if (winner.plan == nullptr) continue;
      // A winner that claims a cheaper total than its inputs' lower bound:
      // cost corruption the branch-and-bound would propagate everywhere.
      auto cheat = std::make_shared<PlanNode>(*winner.plan);
      cheat->total_cost.io_s = 0.0;
      cheat->total_cost.cpu_s = 0.0;
      if (cheat->children.empty() && cheat->local_cost.io_s == 0.0 &&
          cheat->local_cost.cpu_s == 0.0) {
        continue;  // a genuinely free leaf would not drift; pick another
      }
      winner.plan = cheat;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectMemoViolation(invariant::kMemoWinnerCost);
}

}  // namespace
}  // namespace oodb
