// Per-operator execution tests over hand-built plans: edge cases that
// whole-query tests reach only incidentally — empty inputs, duplicate join
// keys, multi-key and mixed-kind join keys against the reference
// evaluator, multi-step assembly, dangling references, warm-start pinning,
// merge-join equal-key runs.
#include <gtest/gtest.h>

#include <limits>

#include "src/exec/reference.h"
#include "tests/test_util.h"

namespace oodb {
namespace {

class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : db_(MakePaperCatalog(0.02)), store_(&db_.catalog) {
    ctx_.catalog = &db_.catalog;
  }

  /// Leaf plan node scanning a collection into `binding`.
  PlanNodePtr Scan(const CollectionId& coll, BindingId binding) {
    PhysicalOp op;
    op.kind = PhysOpKind::kFileScan;
    op.coll = coll;
    op.binding = binding;
    LogicalProps props;
    props.scope = BindingSet::Of(binding);
    PhysProps delivered;
    delivered.in_memory = BindingSet::Of(binding);
    return PlanNode::Make(op, {}, props, delivered, Cost{});
  }

  PlanNodePtr Node(PhysicalOp op, std::vector<PlanNodePtr> children,
                   BindingSet scope) {
    LogicalProps props;
    props.scope = scope;
    PhysProps delivered;
    delivered.in_memory = scope;
    return PlanNode::Make(std::move(op), std::move(children), props, delivered,
                          Cost{});
  }

  Result<ExecStats> Run(const PlanNodePtr& plan) {
    return ExecutePlan(*plan, &store_, &ctx_);
  }

  PaperDb db_;
  QueryContext ctx_;
  ObjectStore store_;
};

TEST_F(OperatorTest, FileScanOverEmptyCollection) {
  // Registered set with no members.
  BindingId c = ctx_.bindings.AddGet("c", db_.city);
  // Populate nothing; CollectionMembers fails for an unpopulated set, so
  // add one member elsewhere to create the sets map? Simpler: an empty
  // extent (Country registered, no objects created).
  BindingId n = ctx_.bindings.AddGet("n", db_.country);
  (void)c;
  auto stats = Run(Scan(CollectionId::Extent(db_.country), n));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 0);
}

TEST_F(OperatorTest, HashJoinDuplicateBuildKeys) {
  // Two departments share a floor; join employees on floor value via a
  // value join between two scans.
  Oid d1 = store_.Create(db_.department);
  store_.SetValue(d1, db_.dept_floor, Value::Int(3));
  store_.SetValue(d1, db_.dept_name, Value::Str("A"));
  Oid d2 = store_.Create(db_.department);
  store_.SetValue(d2, db_.dept_floor, Value::Int(3));
  store_.SetValue(d2, db_.dept_name, Value::Str("B"));
  Oid d3 = store_.Create(db_.department);
  store_.SetValue(d3, db_.dept_floor, Value::Int(5));
  store_.SetValue(d3, db_.dept_name, Value::Str("C"));

  BindingId a = ctx_.bindings.AddGet("a", db_.department);
  BindingId b = ctx_.bindings.AddGet("b", db_.department);
  PhysicalOp join;
  join.kind = PhysOpKind::kHybridHashJoin;
  join.pred = ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(a, db_.dept_floor),
                              ScalarExpr::Attr(b, db_.dept_floor));
  BindingSet scope = BindingSet::Of(a);
  scope.Add(b);
  PlanNodePtr plan =
      Node(join,
           {Scan(CollectionId::Extent(db_.department), a),
            Scan(CollectionId::Extent(db_.department), b)},
           scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Floor 3: 2x2 pairs; floor 5: 1x1.
  EXPECT_EQ(stats->rows, 5);
}

TEST_F(OperatorTest, HashJoinEmptyBuildSide) {
  BindingId n = ctx_.bindings.AddGet("n", db_.country);  // empty extent
  Oid d = store_.Create(db_.department);
  store_.SetValue(d, db_.dept_floor, Value::Int(1));
  BindingId b = ctx_.bindings.AddGet("b", db_.department);
  PhysicalOp join;
  join.kind = PhysOpKind::kHybridHashJoin;
  join.pred = ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(n, db_.country_name),
                              ScalarExpr::Attr(b, db_.dept_name));
  BindingSet scope = BindingSet::Of(n);
  scope.Add(b);
  PlanNodePtr plan = Node(join,
                          {Scan(CollectionId::Extent(db_.country), n),
                           Scan(CollectionId::Extent(db_.department), b)},
                          scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 0);
}

TEST_F(OperatorTest, HashJoinMultiKeyMatchesEveryKey) {
  // A table keyed by concatenated key encodings would see (name "q|i5|sq",
  // floor 5) and (name "q|i5", name "q|i5") both as "sq|i5|sq|i5|"; every
  // key must match on its own.
  Oid d = store_.Create(db_.department);
  store_.SetValue(d, db_.dept_name, Value::Str("q|i5|sq"));
  store_.SetValue(d, db_.dept_floor, Value::Int(5));
  Oid e = store_.Create(db_.employee);
  store_.SetValue(e, db_.emp_name, Value::Str("q|i5"));
  BindingId a = ctx_.bindings.AddGet("a", db_.department);
  BindingId b = ctx_.bindings.AddGet("b", db_.employee);
  PhysicalOp join;
  join.kind = PhysOpKind::kHybridHashJoin;
  join.pred = ScalarExpr::And(
      {ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(a, db_.dept_name),
                       ScalarExpr::Attr(b, db_.emp_name)),
       ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(a, db_.dept_floor),
                       ScalarExpr::Attr(b, db_.emp_name))});
  BindingSet scope = BindingSet::Of(a);
  scope.Add(b);
  auto stats = Run(Node(join,
                        {Scan(CollectionId::Extent(db_.department), a),
                         Scan(CollectionId::Extent(db_.employee), b)},
                        scope));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 0);
}

TEST_F(OperatorTest, HashJoinKeyKindsMatchReference) {
  // One Department and one Employee per case, joined on a Department field
  // against an Employee field, with either side as the build side; the
  // hash join must agree with Value::operator== as the reference applies it.
  struct Case {
    const char* name;
    FieldId dept_field, emp_field;
    Value dept_value, emp_value;
    int64_t rows;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {"NaN vs NaN", db_.dept_floor, db_.emp_salary, Value::Double(nan),
       Value::Double(nan), 0},
      {"int 3 vs double 3.0", db_.dept_floor, db_.emp_salary, Value::Int(3),
       Value::Double(3.0), 1},
      {"null vs null", db_.dept_floor, db_.emp_salary, Value::Null(),
       Value::Null(), 1},
      {"string vs int", db_.dept_name, db_.emp_age, Value::Str("3"),
       Value::Int(3), 0},
  };
  for (const Case& c : cases) {
    for (bool dept_builds : {true, false}) {
      SCOPED_TRACE(std::string(c.name) +
                   (dept_builds ? ", Department builds" : ", Employee builds"));
      ObjectStore store(&db_.catalog);
      QueryContext ctx;
      ctx.catalog = &db_.catalog;
      store.SetValue(store.Create(db_.department), c.dept_field, c.dept_value);
      store.SetValue(store.Create(db_.employee), c.emp_field, c.emp_value);
      BindingId a = ctx.bindings.AddGet("a", db_.department);
      BindingId b = ctx.bindings.AddGet("b", db_.employee);
      ScalarExprPtr pred =
          ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(a, c.dept_field),
                          ScalarExpr::Attr(b, c.emp_field));
      PlanNodePtr build = Scan(CollectionId::Extent(db_.department), a);
      PlanNodePtr probe = Scan(CollectionId::Extent(db_.employee), b);
      LogicalExprPtr left = LogicalExpr::Make(
          LogicalOp::Get(CollectionId::Extent(db_.department), a));
      LogicalExprPtr right = LogicalExpr::Make(
          LogicalOp::Get(CollectionId::Extent(db_.employee), b));
      if (!dept_builds) {
        std::swap(build, probe);
        std::swap(left, right);
      }
      PhysicalOp join;
      join.kind = PhysOpKind::kHybridHashJoin;
      join.pred = pred;
      BindingSet scope = BindingSet::Of(a);
      scope.Add(b);
      auto stats =
          ExecutePlan(*Node(join, {build, probe}, scope), &store, &ctx);
      ASSERT_TRUE(stats.ok()) << stats.status();
      auto ref = EvaluateReference(
          *LogicalExpr::Make(LogicalOp::Join(pred), {left, right}), &store,
          ctx);
      ASSERT_TRUE(ref.ok()) << ref.status();
      EXPECT_EQ(static_cast<int64_t>(ref->tuples.size()), c.rows);
      EXPECT_EQ(stats->rows, c.rows);
    }
  }
}

TEST_F(OperatorTest, MultiStepAssemblyLoadsChain) {
  // employee -> dept -> plant in ONE assembly operator (Figure 7 shape).
  Oid plant = store_.Create(db_.plant);
  store_.SetValue(plant, db_.plant_location, Value::Str("Dallas"));
  Oid dept = store_.Create(db_.department);
  store_.SetRef(dept, db_.dept_plant, plant);
  Oid emp = store_.Create(db_.employee);
  store_.SetRef(emp, db_.emp_dept, dept);

  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  BindingId p = ctx_.bindings.AddMat("e.dept.plant", db_.plant, d, db_.dept_plant);

  PhysicalOp assembly;
  assembly.kind = PhysOpKind::kAssembly;
  assembly.mats = {MatStep{e, db_.emp_dept, d}, MatStep{d, db_.dept_plant, p}};
  BindingSet scope = BindingSet::Of(e);
  scope.Add(d);
  scope.Add(p);
  PlanNodePtr asm_node =
      Node(assembly, {Scan(CollectionId::Extent(db_.employee), e)}, scope);

  PhysicalOp filter;
  filter.kind = PhysOpKind::kFilter;
  filter.pred = ScalarExpr::AttrEqStr(p, db_.plant_location, "Dallas");
  PlanNodePtr plan = Node(filter, {asm_node}, scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 1);
}

TEST_F(OperatorTest, AssemblyDropsDanglingReferences) {
  Oid dept = store_.Create(db_.department);
  Oid good = store_.Create(db_.employee);
  store_.SetRef(good, db_.emp_dept, dept);
  Oid dangling = store_.Create(db_.employee);
  store_.SetRef(dangling, db_.emp_dept, kInvalidOid);

  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  PhysicalOp assembly;
  assembly.kind = PhysOpKind::kAssembly;
  assembly.mats = {MatStep{e, db_.emp_dept, d}};
  BindingSet scope = BindingSet::Of(e);
  scope.Add(d);
  PlanNodePtr plan =
      Node(assembly, {Scan(CollectionId::Extent(db_.employee), e)}, scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 1);  // the dangling tuple is dropped (join semantics)
}

TEST_F(OperatorTest, PointerJoinDropsDanglingReferences) {
  Oid dept = store_.Create(db_.department);
  Oid good = store_.Create(db_.employee);
  store_.SetRef(good, db_.emp_dept, dept);
  Oid dangling = store_.Create(db_.employee);
  store_.SetRef(dangling, db_.emp_dept, kInvalidOid);

  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  PhysicalOp pj;
  pj.kind = PhysOpKind::kPointerJoin;
  pj.pred = ScalarExpr::RefEq(e, db_.emp_dept, d);
  pj.mats = {MatStep{e, db_.emp_dept, d}};
  BindingSet scope = BindingSet::Of(e);
  scope.Add(d);
  PlanNodePtr plan =
      Node(pj, {Scan(CollectionId::Extent(db_.employee), e)}, scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 1);
}

TEST_F(OperatorTest, WarmStartAssemblyMatchesPlain) {
  for (int i = 0; i < 30; ++i) {
    Oid dept = store_.Create(db_.department);
    Oid emp = store_.Create(db_.employee);
    store_.SetRef(emp, db_.emp_dept, dept);
  }
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);
  BindingId d = ctx_.bindings.AddMat("e.dept", db_.department, e, db_.emp_dept);
  BindingSet scope = BindingSet::Of(e);
  scope.Add(d);
  auto run = [&](bool warm) {
    PhysicalOp assembly;
    assembly.kind = PhysOpKind::kAssembly;
    assembly.mats = {MatStep{e, db_.emp_dept, d}};
    assembly.warm_start = warm;
    PlanNodePtr plan =
        Node(assembly, {Scan(CollectionId::Extent(db_.employee), e)}, scope);
    auto stats = Run(plan);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return stats.ok() ? stats->rows : -1;
  };
  EXPECT_EQ(run(false), 30);
  EXPECT_EQ(run(true), 30);
}

TEST_F(OperatorTest, NestedLoopsCartesianCount) {
  for (int i = 0; i < 3; ++i) store_.Create(db_.department);
  for (int i = 0; i < 4; ++i) store_.Create(db_.job);
  BindingId a = ctx_.bindings.AddGet("a", db_.department);
  BindingId b = ctx_.bindings.AddGet("b", db_.job);
  PhysicalOp nl;
  nl.kind = PhysOpKind::kNestedLoops;
  nl.pred = ScalarExpr::Const(Value::Int(1));
  BindingSet scope = BindingSet::Of(a);
  scope.Add(b);
  PlanNodePtr plan = Node(nl,
                          {Scan(CollectionId::Extent(db_.department), a),
                           Scan(CollectionId::Extent(db_.job), b)},
                          scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 12);
}

TEST_F(OperatorTest, SortStableAndOrdered) {
  int64_t ages[] = {40, 20, 30, 20, 50};
  for (int64_t age : ages) {
    Oid p = store_.Create(db_.person);
    store_.SetValue(p, db_.person_age, Value::Int(age));
  }
  BindingId p = ctx_.bindings.AddGet("p", db_.person);
  PhysicalOp sort;
  sort.kind = PhysOpKind::kSort;
  sort.sort = SortSpec{p, db_.person_age};
  PlanNodePtr plan =
      Node(sort, {Scan(CollectionId::Extent(db_.person), p)},
           BindingSet::Of(p));
  // Wrap with a projection so rows are extracted.
  PhysicalOp proj;
  proj.kind = PhysOpKind::kAlgProject;
  proj.emit = {ScalarExpr::Attr(p, db_.person_age)};
  PlanNodePtr root = Node(proj, {plan}, BindingSet::Of(p));
  auto stats = Run(root);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->rows, 5);
  std::vector<int64_t> got;
  for (const auto& row : stats->sample_rows) got.push_back(row[0].i);
  EXPECT_EQ(got, (std::vector<int64_t>{20, 20, 30, 40, 50}));
}

TEST_F(OperatorTest, MergeJoinEqualKeyRuns) {
  // Left: ages {20, 20, 30}; Right: ages {20, 30, 30}. Join on equality:
  // 2*1 + 1*2 = 4 matches. Inputs pre-sorted via Sort operators.
  int64_t left_ages[] = {20, 20, 30};
  for (int64_t age : left_ages) {
    Oid p = store_.Create(db_.person);
    store_.SetValue(p, db_.person_age, Value::Int(age));
  }
  int64_t right_ages[] = {20, 30, 30};
  for (int64_t age : right_ages) {
    Oid e = store_.Create(db_.employee);
    store_.SetValue(e, db_.emp_age, Value::Int(age));
  }
  BindingId p = ctx_.bindings.AddGet("p", db_.person);
  BindingId e = ctx_.bindings.AddGet("e", db_.employee);

  PhysicalOp sort_left;
  sort_left.kind = PhysOpKind::kSort;
  sort_left.sort = SortSpec{p, db_.person_age};
  PlanNodePtr left = Node(sort_left, {Scan(CollectionId::Extent(db_.person), p)},
                          BindingSet::Of(p));
  PhysicalOp sort_right;
  sort_right.kind = PhysOpKind::kSort;
  sort_right.sort = SortSpec{e, db_.emp_age};
  PlanNodePtr right = Node(
      sort_right, {Scan(CollectionId::Extent(db_.employee), e)},
      BindingSet::Of(e));

  PhysicalOp merge;
  merge.kind = PhysOpKind::kMergeJoin;
  merge.pred = ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Attr(p, db_.person_age),
                               ScalarExpr::Attr(e, db_.emp_age));
  BindingSet scope = BindingSet::Of(p);
  scope.Add(e);
  PlanNodePtr plan = Node(merge, {left, right}, scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 4);
}

TEST_F(OperatorTest, UnnestEmptySetProducesNothing) {
  Oid t = store_.Create(db_.task);  // no team members added
  (void)t;
  BindingId tb = ctx_.bindings.AddGet("t", db_.task);
  BindingId m = ctx_.bindings.AddUnnest("m", db_.employee, tb,
                                        db_.task_team_members);
  PhysicalOp unnest;
  unnest.kind = PhysOpKind::kAlgUnnest;
  unnest.source = tb;
  unnest.field = db_.task_team_members;
  unnest.target = m;
  BindingSet scope = BindingSet::Of(tb);
  scope.Add(m);
  PlanNodePtr plan =
      Node(unnest, {Scan(CollectionId::Extent(db_.task), tb)}, scope);
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 0);
}

TEST_F(OperatorTest, IndexScanResidualFilters) {
  for (int i = 0; i < 10; ++i) {
    Oid t = store_.Create(db_.task);
    store_.SetValue(t, db_.task_time, Value::Int(5));
    store_.SetValue(t, db_.task_name,
                    Value::Str(i % 2 == 0 ? "keep" : "drop"));
    ASSERT_TRUE(store_.AddToSet("Tasks", t).ok());
  }
  ASSERT_TRUE(store_.AddToSet("Cities", store_.Create(db_.city)).ok());
  ASSERT_TRUE(store_.BuildIndexes().ok());

  BindingId t = ctx_.bindings.AddGet("t", db_.task);
  PhysicalOp scan;
  scan.kind = PhysOpKind::kIndexScan;
  scan.coll = CollectionId::Set("Tasks", db_.task);
  scan.binding = t;
  scan.index_name = kIdxTasksTime;
  scan.index_pred = ScalarExpr::AttrEqInt(t, db_.task_time, 5);
  scan.pred = ScalarExpr::AttrEqStr(t, db_.task_name, "keep");
  LogicalProps props;
  props.scope = BindingSet::Of(t);
  PhysProps delivered;
  delivered.in_memory = BindingSet::Of(t);
  PlanNodePtr plan = PlanNode::Make(scan, {}, props, delivered, Cost{});
  auto stats = Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows, 5);
}

}  // namespace
}  // namespace oodb
