#include <gtest/gtest.h>

#include "src/catalog/paper_catalog.h"
#include "src/volcano/memo.h"

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

  // A rule "discovers" that root_b's expression also belongs to root_a's
  // group: inserting it there must merge the two groups.
  GroupId get_group = memo.Find(
      memo.mexpr(memo.group(*root_b).mexprs[0]).children[0]);
  RuleExprPtr same_as_b = RuleExpr::Op(LogicalOp::Mat(c_, db_.city_country, k_),
                                       {RuleExpr::GroupLeaf(get_group)});
  ASSERT_TRUE(memo.InsertRuleExpr(same_as_b, *root_a).ok());
  EXPECT_EQ(memo.Find(*root_a), memo.Find(*root_b));
  EXPECT_EQ(memo.num_groups(), groups_before - 1);
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

TEST_F(MemoTest, InsertOpWithoutTargetJoinsTheGroupHoldingItsRoot) {
  Memo memo(&ctx_);
  auto tree = LogicalExpr::Make(LogicalOp::Mat(c_, db_.city_mayor, m_), {Cities()});
  auto root = memo.InsertTree(*tree);
  ASSERT_TRUE(root.ok());
  GroupId cities = memo.mexpr(memo.group(*root).mexprs[0]).children[0];
  // An expression already in the memo: its m-expr, and nothing new.
  auto same = memo.InsertOp(RuleExpr::Op(LogicalOp::Mat(c_, db_.city_mayor, m_),
                                         {RuleExpr::GroupLeaf(cities)}),
                            kInvalidGroup);
  ASSERT_TRUE(same.ok());
  EXPECT_FALSE(same->second);
  EXPECT_EQ(memo.Find(memo.mexpr(same->first).group), memo.Find(*root));
  EXPECT_EQ(memo.num_mexprs(), 2);
  // A new one: a new group.
  auto other = memo.InsertOp(
      RuleExpr::Op(LogicalOp::Mat(c_, db_.city_country, k_),
                   {RuleExpr::GroupLeaf(cities)}),
      kInvalidGroup);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->second);
  EXPECT_NE(memo.Find(memo.mexpr(other->first).group), memo.Find(*root));
  EXPECT_EQ(memo.num_groups(), 3);
}

}  // namespace
}  // namespace oodb
