#include <gtest/gtest.h>

#include "src/catalog/paper_catalog.h"
#include "src/volcano/memo.h"
#include "src/volcano/watermark.h"

namespace oodb {
namespace {

class MemoTest : public ::testing::Test {
 protected:
  MemoTest() : db_(MakePaperCatalog()) {
    ctx_.catalog = &db_.catalog;
    c_ = ctx_.bindings.AddGet("c", db_.city);
    m_ = ctx_.bindings.AddMat("c.mayor", db_.person, c_, db_.city_mayor);
    k_ = ctx_.bindings.AddMat("c.country", db_.country, c_, db_.city_country);
  }

  LogicalExprPtr Cities() {
    return LogicalExpr::Make(
        LogicalOp::Get(CollectionId::Set("Cities", db_.city), c_));
  }

  PaperDb db_;
  QueryContext ctx_;
  BindingId c_, m_, k_;
};

TEST_F(MemoTest, InsertTreeCreatesGroups) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_),
                                {Cities()});
  auto root = memo.InsertTree(*tree);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(memo.num_groups(), 2);
  EXPECT_EQ(memo.num_mexprs(), 2);
  EXPECT_DOUBLE_EQ(memo.group(*root).props.card, 10000);
}

TEST_F(MemoTest, DuplicateSubtreesShareGroups) {
  // Common subexpression factorization "for free" (paper §2): two identical
  // Get subtrees land in one group.
  Memo memo(&ctx_);
  auto t1 = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  auto t2 = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_country, k_), {Cities()});
  ASSERT_TRUE(memo.InsertTree(*t1).ok());
  ASSERT_TRUE(memo.InsertTree(*t2).ok());
  EXPECT_EQ(memo.num_groups(), 3);  // Get, Mat-mayor, Mat-country
  EXPECT_EQ(memo.num_mexprs(), 3);
}

TEST_F(MemoTest, ReinsertingSameTreeIsIdempotent) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  auto r1 = memo.InsertTree(*tree);
  auto r2 = memo.InsertTree(*tree);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(memo.num_mexprs(), 2);
}

TEST_F(MemoTest, RuleExprInsertionIntoGroup) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      {LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()})});
  auto root = memo.InsertTree(*tree);
  ASSERT_TRUE(root.ok());
  int before = memo.num_mexprs();

  // Insert an equivalent expression (as a rule would) into the root group.
  GroupId mat_group = memo.Find(
      memo.mexpr(memo.group(*root).mexprs[0]).children[0]);
  RuleExprPtr alt = RuleExpr::Op(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      {RuleExpr::GroupLeaf(mat_group)});
  auto inserted = memo.InsertRuleExpr(alt, *root);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, kInvalidMExpr);  // duplicate of the existing root
  EXPECT_EQ(memo.num_mexprs(), before);
}

TEST_F(MemoTest, RuleExprCreatesNewChildGroups) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  auto root = memo.InsertTree(*tree);
  ASSERT_TRUE(root.ok());

  // Mat -> Join rewrite: new Join m-expr in the root group with a brand new
  // Get(extent(Person)) child group.
  RuleExprPtr join = RuleExpr::Op(
      LogicalOp::Join(ScalarExpr::RefEq(c_, db_.city_mayor, m_)),
      {RuleExpr::GroupLeaf(memo.Find(
           memo.mexpr(memo.group(*root).mexprs[0]).children[0])),
       RuleExpr::Op(LogicalOp::Get(CollectionId::Extent(db_.person), m_))});
  auto inserted = memo.InsertRuleExpr(join, *root);
  ASSERT_TRUE(inserted.ok());
  EXPECT_NE(*inserted, kInvalidMExpr);
  EXPECT_EQ(memo.num_groups(), 3);
  EXPECT_EQ(memo.group(*root).mexprs.size(), 2u);
}

TEST_F(MemoTest, GroupMergeOnEquivalenceDiscovery) {
  Memo memo(&ctx_);
  // Two separately inserted trees with a shared leaf.
  auto a = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  auto root_a = memo.InsertTree(*a);
  ASSERT_TRUE(root_a.ok());
  auto b = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_country, k_), {Cities()});
  auto root_b = memo.InsertTree(*b);
  ASSERT_TRUE(root_b.ok());
  ASSERT_NE(memo.Find(*root_a), memo.Find(*root_b));
  int groups_before = memo.num_groups();
  EXPECT_EQ(memo.merge_epoch(), 0u);

  // A rule "discovers" that root_b's expression also belongs to root_a's
  // group: inserting it there must merge the two groups.
  GroupId get_group = memo.Find(
      memo.mexpr(memo.group(*root_b).mexprs[0]).children[0]);
  RuleExprPtr same_as_b = RuleExpr::Op(LogicalOp::Mat(c_, db_.city_country, k_),
                                       {RuleExpr::GroupLeaf(get_group)});
  ASSERT_TRUE(memo.InsertRuleExpr(same_as_b, *root_a).ok());
  EXPECT_EQ(memo.Find(*root_a), memo.Find(*root_b));
  EXPECT_EQ(memo.num_groups(), groups_before - 1);
  EXPECT_EQ(memo.merge_epoch(), 1u);
}

TEST_F(MemoTest, IntAndDoubleLiteralSelectsInsertAsOneMExpr) {
  // Equal predicates must meet in the index whatever the literal's kind.
  Memo memo(&ctx_);
  auto select = [&](Value v) {
    return LogicalExpr::Make(
        LogicalOp::Select(ScalarExpr::Cmp(
            CmpOp::kEq, ScalarExpr::Attr(c_, db_.city_population),
            ScalarExpr::Const(std::move(v)))),
        {Cities()});
  };
  auto r1 = memo.InsertTree(*select(Value::Int(3)));
  auto r2 = memo.InsertTree(*select(Value::Double(3.0)));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(memo.num_mexprs(), 2);  // Get + one Select
  EXPECT_EQ(memo.num_groups(), 2);
}

TEST_F(MemoTest, ChildGroupCanonicalization) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  auto root = memo.InsertTree(*tree);
  ASSERT_TRUE(root.ok());
  const LogicalMExpr& mat = memo.mexpr(memo.group(*root).mexprs[0]);
  EXPECT_EQ(memo.ChildGroup(mat, 0), memo.Find(mat.children[0]));
}

TEST_F(MemoTest, ToStringListsGroups) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  ASSERT_TRUE(memo.InsertTree(*tree).ok());
  std::string dump = memo.ToString();
  EXPECT_NE(dump.find("group 0"), std::string::npos);
  EXPECT_NE(dump.find("Mat c.mayor"), std::string::npos);
}

TEST_F(MemoTest, BareGroupRootRejected) {
  Memo memo(&ctx_);
  auto root = memo.InsertTree(*Cities());
  ASSERT_TRUE(root.ok());
  auto r = memo.InsertRuleExpr(RuleExpr::GroupLeaf(*root), *root);
  EXPECT_FALSE(r.ok());
}

// --- Watermarks (incremental exploration) ---

class WatermarkTest : public MemoTest {
 protected:
  WatermarkTest() : memo_(&ctx_) {}

  ScalarExprPtr PopOver(int64_t v) {
    return ScalarExpr::AttrCmpInt(c_, db_.city_population, CmpOp::kGt, v);
  }

  /// Inserts `tree` and returns its root m-expr.
  MExprId Root(const LogicalExprPtr& tree) {
    Result<GroupId> g = memo_.InsertTree(*tree);
    EXPECT_TRUE(g.ok());
    return memo_.group(*g).mexprs[0];
  }

  /// Select_{c.population > v}(Cities) in a group of its own.
  GroupId NewSelect(int64_t v) {
    return memo_.mexpr(
        Root(LogicalExpr::Make(LogicalOp::Select(PopOver(v)), {Cities()})))
        .group;
  }

  /// Discovers Select_{c.population > v}(Cities) in group `into`, merging
  /// its own group there (the larger group id is the one merged away).
  void DiscoverSelectIn(GroupId into, int64_t v) {
    GroupId cities = memo_.Find(memo_.mexpr(0).group);
    ASSERT_TRUE(memo_
                    .InsertRuleExpr(RuleExpr::Op(LogicalOp::Select(PopOver(v)),
                                                 {RuleExpr::GroupLeaf(cities)}),
                                    into)
                    .ok());
  }

  /// Select_{mayor is Joe}(Mat c.mayor(Cities)), with the Mat's group
  /// holding a second m-expr (the Mat -> Join rewrite).
  MExprId SelectOverTwoMatAlternatives() {
    MExprId select = Root(LogicalExpr::Make(
        LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
        {LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_),
                           {Cities()})}));
    AddJoinTo(memo_.Find(memo_.mexpr(select).children[0]));
    return select;
  }

  void AddJoinTo(GroupId mat_group) {
    GroupId cities = memo_.Find(memo_.mexpr(0).group);
    RuleExprPtr join = RuleExpr::Op(
        LogicalOp::Join(ScalarExpr::RefEq(c_, db_.city_mayor, m_)),
        {RuleExpr::GroupLeaf(cities),
         RuleExpr::Op(LogicalOp::Get(CollectionId::Extent(db_.person), m_))});
    ASSERT_TRUE(memo_.InsertRuleExpr(join, mat_group).ok());
  }

  int32_t StartSlot0(Watermark& w, MExprId m) {
    return w.Start(memo_, memo_.mexpr(m))[0];
  }

  Memo memo_;
};

TEST_F(WatermarkTest, ReFiringBindsOnlyNewChildMExprs) {
  MExprId select = Root(LogicalExpr::Make(
      LogicalOp::Select(ScalarExpr::AttrEqStr(m_, db_.person_name, "Joe")),
      {LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_),
                         {Cities()})}));
  Watermark w;
  EXPECT_EQ(StartSlot0(w, select), 0);  // a first firing binds everything
  ASSERT_TRUE(w.Finish({}, {}, {}).ok());
  EXPECT_EQ(StartSlot0(w, select), 1);  // nothing new: the Mat was had
  AddJoinTo(memo_.Find(memo_.mexpr(select).children[0]));
  EXPECT_EQ(StartSlot0(w, select), 1);  // binds the Join alone
  EXPECT_EQ(StartSlot0(w, select), 2);
}

TEST_F(WatermarkTest, MergeReBindsFromFirstBindingNamingAMergedAwayGroup) {
  MExprId select = SelectOverTwoMatAlternatives();
  GroupId kept = NewSelect(1), doomed = NewSelect(2);
  GroupId other = NewSelect(3);
  NewSelect(4);
  Watermark w;
  ASSERT_EQ(StartSlot0(w, select), 0);
  // Binding 0's output named `kept`, binding 1's named `doomed`.
  ASSERT_TRUE(w.Finish({{0, 0, 0, 1}, {0, 1, 1, 2}}, {kept, doomed}, {1, 2})
                  .ok());

  // A merge of groups no output named re-binds nothing.
  uint64_t epoch = memo_.merge_epoch();
  DiscoverSelectIn(other, 4);
  ASSERT_GT(memo_.merge_epoch(), epoch);
  EXPECT_EQ(StartSlot0(w, select), 2);
  ASSERT_TRUE(w.Finish({}, {}, {}).ok());

  // Merging `doomed` away leaves binding 1's index keys stale: binding 1 is
  // bound again, binding 0 is not.
  DiscoverSelectIn(kept, 2);
  ASSERT_NE(memo_.Find(doomed), doomed);
  EXPECT_EQ(StartSlot0(w, select), 1);
  ASSERT_TRUE(w.Finish({{0, 1, 0, 1}}, {kept}, {1}).ok());
  EXPECT_EQ(StartSlot0(w, select), 2);
}

TEST_F(WatermarkTest, MergingAwayTheChildGroupReBindsEverything) {
  GroupId mayor = memo_.mexpr(Root(LogicalExpr::Make(
                                  LogicalOp::Mat(c_, db_.city_mayor, m_),
                                  {Cities()})))
                      .group;
  MExprId select = Root(LogicalExpr::Make(
      LogicalOp::Select(PopOver(1)),
      {LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_country, k_),
                         {Cities()})}));
  Watermark w;
  ASSERT_EQ(StartSlot0(w, select), 0);
  ASSERT_TRUE(w.Finish({}, {}, {}).ok());
  ASSERT_EQ(StartSlot0(w, select), 1);

  // The country Mat turns up in the mayor Mat's (older) group: the child
  // group is merged away and its m-exprs move, so all are bound again.
  GroupId cities = memo_.Find(memo_.mexpr(0).group);
  ASSERT_TRUE(memo_
                  .InsertRuleExpr(
                      RuleExpr::Op(LogicalOp::Mat(c_, db_.city_country, k_),
                                   {RuleExpr::GroupLeaf(cities)}),
                      mayor)
                  .ok());
  ASSERT_EQ(memo_.Find(memo_.mexpr(select).children[0]), mayor);
  EXPECT_EQ(StartSlot0(w, select), 0);
}

TEST_F(WatermarkTest, LaterSlotReBindsOnlyWhenEarlierSlotsBindNothing) {
  MExprId join = Root(LogicalExpr::Make(
      LogicalOp::Join(ScalarExpr::RefEq(c_, db_.city_mayor, m_)),
      {Cities(), LogicalExpr::Make(LogicalOp::Get(
                     CollectionId::Extent(db_.person), m_))}));
  GroupId left = memo_.Find(memo_.mexpr(join).children[0]);
  GroupId right = memo_.Find(memo_.mexpr(join).children[1]);
  auto add_select = [&](GroupId g, ScalarExprPtr pred) {
    ASSERT_TRUE(memo_
                    .InsertRuleExpr(RuleExpr::Op(LogicalOp::Select(pred),
                                                 {RuleExpr::GroupLeaf(g)}),
                                    g)
                    .ok());
  };
  Watermark w;
  ASSERT_EQ(w.Start(memo_, memo_.mexpr(join)), (ChildStarts{0, 0}));
  ASSERT_TRUE(w.Finish({}, {}, {}).ok());
  EXPECT_EQ(w.Start(memo_, memo_.mexpr(join)), (ChildStarts{1, 1}));

  // Only the right side grew: the left binds nothing, so the right binds
  // just its new m-expr.
  add_select(right, ScalarExpr::AttrCmpInt(m_, db_.person_age, CmpOp::kGt, 1));
  EXPECT_EQ(w.Start(memo_, memo_.mexpr(join)), (ChildStarts{1, 1}));

  // The left grew: its new outputs come first and may merge groups, so the
  // right starts from the top.
  add_select(left, PopOver(1));
  EXPECT_EQ(w.Start(memo_, memo_.mexpr(join)), (ChildStarts{1, 0}));
}

TEST_F(WatermarkTest, OutputFromNoBindingIsRejected) {
  MExprId select = SelectOverTwoMatAlternatives();
  Watermark w;
  ASSERT_EQ(StartSlot0(w, select), 0);
  EXPECT_FALSE(w.Finish({}, {memo_.mexpr(select).group}, {1}).ok());
}

}  // namespace
}  // namespace oodb
