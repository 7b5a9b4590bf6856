#include "src/volcano/memo.h"

#include <algorithm>
#include <sstream>

namespace oodb {

RuleExprPtr RuleExpr::GroupLeaf(GroupId g) {
  auto e = std::make_shared<RuleExpr>();
  e->is_group = true;
  e->group = g;
  return e;
}

RuleExprPtr RuleExpr::Op(LogicalOp op, std::vector<RuleExprPtr> children) {
  auto e = std::make_shared<RuleExpr>();
  e->op = std::move(op);
  e->children = std::move(children);
  return e;
}

size_t Memo::KeyHash::operator()(const MExprKey& k) const {
  size_t h = k.op_hash;
  for (GroupId g : k.children) {
    h = h * 1099511628211ull + static_cast<size_t>(g) + 0x9e37;
  }
  return h;
}

bool Memo::KeyEq::operator()(const MExprKey& a, const MExprKey& b) const {
  return a.op_hash == b.op_hash && a.children == b.children && a.op == b.op;
}

GroupId Memo::Find(GroupId g) const {
  while (parent_link_[g] != g) {
    parent_link_[g] = parent_link_[parent_link_[g]];  // path halving
    g = parent_link_[g];
  }
  return g;
}

Result<LogicalProps> Memo::DeriveProps(
    const LogicalOp& op, const std::vector<GroupId>& children) const {
  std::vector<LogicalProps> child_props;
  child_props.reserve(children.size());
  for (GroupId c : children) child_props.push_back(group(c).props);
  return DeriveLogicalProps(op, child_props, *ctx_);
}

Status Memo::Merge(GroupId a, GroupId b) {
  a = Find(a);
  b = Find(b);
  if (a == b) return Status::OK();
  if (!groups_[a].winners.empty() || !groups_[b].winners.empty()) {
    return Status::Internal("group merge after optimization began");
  }
  // Keep the smaller id as representative.
  if (b < a) std::swap(a, b);
  parent_link_[b] = a;
  --live_groups_;
  Group& rep = groups_[a];
  Group& merged = groups_[b];
  for (MExprId m : merged.mexprs) {
    mexprs_[m].group = a;
    rep.mexprs.push_back(m);
  }
  merged.mexprs.clear();
  return Status::OK();
}

Result<std::pair<MExprId, bool>> Memo::Insert(LogicalOp op,
                                              std::vector<GroupId> children,
                                              GroupId target) {
  for (GroupId& c : children) c = Find(c);
  if (target != kInvalidGroup) target = Find(target);

  // op.Hash() walks predicate/emit expression trees; hash once and carry
  // the result in the key (KeyEq short-circuits on op_hash before falling
  // back to the deep LogicalOp comparison). Most rule outputs are
  // duplicates, so the key takes op and children by move and only a new
  // m-expr pays for copies.
  size_t op_hash = op.Hash();
  MExprKey key{op_hash, std::move(op), std::move(children)};
  auto it = index_.find(key);
  if (it != index_.end()) {
    MExprId existing = it->second;
    GroupId existing_group = Find(mexprs_[existing].group);
    if (target != kInvalidGroup && existing_group != target) {
      OODB_RETURN_IF_ERROR(Merge(existing_group, target));
    }
    return std::make_pair(existing, false);
  }

  GroupId g = target;
  if (g == kInvalidGroup) {
    OODB_ASSIGN_OR_RETURN(LogicalProps props,
                          DeriveProps(key.op, key.children));
    g = static_cast<GroupId>(groups_.size());
    groups_.emplace_back();
    groups_[g].id = g;
    groups_[g].props = std::move(props);
    parent_link_.push_back(g);
    ++live_groups_;
  }

  MExprId id = static_cast<MExprId>(mexprs_.size());
  LogicalMExpr m;
  m.id = id;
  m.group = g;
  m.op = key.op;
  m.children = key.children;
  mexprs_.push_back(std::move(m));
  groups_[g].mexprs.push_back(id);
  index_.emplace(std::move(key), id);
  return std::make_pair(id, true);
}

Result<GroupId> Memo::InsertTreeRec(const LogicalExpr& tree) {
  std::vector<GroupId> children;
  children.reserve(tree.children.size());
  for (const LogicalExprPtr& c : tree.children) {
    OODB_ASSIGN_OR_RETURN(GroupId g, InsertTreeRec(*c));
    children.push_back(g);
  }
  OODB_ASSIGN_OR_RETURN(auto inserted,
                        Insert(tree.op, std::move(children), kInvalidGroup));
  return Find(mexprs_[inserted.first].group);
}

namespace {
int CountTreeNodes(const LogicalExpr& tree) {
  int n = 1;
  for (const LogicalExprPtr& c : tree.children) n += CountTreeNodes(*c);
  return n;
}
}  // namespace

Result<GroupId> Memo::InsertTree(const LogicalExpr& tree) {
  // Pre-size the structures from the input: exploration typically grows the
  // memo to a small multiple of the tree, so reserving here removes the
  // rehash/realloc churn of the early expansion.
  int n = CountTreeNodes(tree);
  groups_.reserve(groups_.size() + n);
  mexprs_.reserve(mexprs_.size() + 4 * n);
  parent_link_.reserve(parent_link_.size() + n);
  index_.reserve(index_.size() + 4 * n);
  return InsertTreeRec(tree);
}

Result<std::pair<MExprId, bool>> Memo::InsertOp(const RuleExprPtr& expr,
                                                GroupId target) {
  std::vector<GroupId> children;
  children.reserve(expr->children.size());
  for (const RuleExprPtr& c : expr->children) {
    if (c->is_group) {
      children.push_back(c->group);
      continue;
    }
    OODB_ASSIGN_OR_RETURN(auto child, InsertOp(c, kInvalidGroup));
    children.push_back(mexprs_[child.first].group);
  }
  return Insert(expr->op, std::move(children), target);
}

Result<MExprId> Memo::InsertRuleExpr(const RuleExprPtr& expr, GroupId target) {
  if (expr->is_group) {
    // A rule may only rewrite to an operator tree, not to a bare group.
    return Status::Internal("rule produced a bare group as its root");
  }
  OODB_ASSIGN_OR_RETURN(auto inserted, InsertOp(expr, target));
  return inserted.second ? inserted.first : kInvalidMExpr;
}

std::string Memo::ToString() const {
  std::ostringstream os;
  for (GroupId g = 0; g < static_cast<GroupId>(groups_.size()); ++g) {
    if (Find(g) != g) continue;
    const Group& grp = groups_[g];
    os << "group " << g << " [card " << grp.props.card << "]\n";
    for (MExprId m : grp.mexprs) {
      os << "  #" << m << " " << mexprs_[m].op.ToString(*ctx_) << " (";
      for (size_t i = 0; i < mexprs_[m].children.size(); ++i) {
        if (i > 0) os << ", ";
        os << Find(mexprs_[m].children[i]);
      }
      os << ")\n";
    }
  }
  return os.str();
}

}  // namespace oodb
