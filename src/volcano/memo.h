// The memo: equivalence classes (groups) of logically equivalent
// expressions, shared across the whole search. Global common-subexpression
// factorization falls out of the hash-based duplicate detection — one of the
// features the paper notes Volcano provides "for free" (§2).
#ifndef OODB_VOLCANO_MEMO_H_
#define OODB_VOLCANO_MEMO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/algebra/logical_props.h"
#include "src/volcano/plan.h"

namespace oodb {

using GroupId = int32_t;
using MExprId = int32_t;
inline constexpr GroupId kInvalidGroup = -1;
inline constexpr MExprId kInvalidMExpr = -1;

/// A logical multi-expression: an operator whose children are groups.
struct LogicalMExpr {
  MExprId id = kInvalidMExpr;
  GroupId group = kInvalidGroup;
  LogicalOp op;
  std::vector<GroupId> children;
  /// Bitmask of transformation rules already fired on this m-expr.
  uint64_t applied_rules = 0;
};

/// Memoized result of optimizing a group under one required property vector.
struct Winner {
  PlanNodePtr plan;      ///< optimal plan, or null if none was found
  bool in_progress = false;  ///< cycle guard
  /// True when the search for this (group, properties) pair was not cut off
  /// by a branch-and-bound cost limit: `plan` (or its absence) is definitive.
  bool complete = true;
  /// When !complete and plan == null: every plan costs at least
  /// lower_bound (the cheapest any alternative cut by the search's cost
  /// limit could cost), so only a limit of at least this re-runs it.
  double lower_bound = 0.0;
};

/// One equivalence class.
struct Group {
  GroupId id = kInvalidGroup;
  std::vector<MExprId> mexprs;
  LogicalProps props;
  /// Winner per required physical property vector.
  std::map<PhysProps, Winner> winners;
};

/// Expression fragments produced by transformation rules: operator trees
/// whose leaves may be references to existing groups.
struct RuleExpr;
using RuleExprPtr = std::shared_ptr<const RuleExpr>;
struct RuleExpr {
  bool is_group = false;
  GroupId group = kInvalidGroup;
  LogicalOp op;
  std::vector<RuleExprPtr> children;

  static RuleExprPtr GroupLeaf(GroupId g);
  static RuleExprPtr Op(LogicalOp op, std::vector<RuleExprPtr> children = {});
};

/// The memo. Supports insertion of standalone trees and of rule-produced
/// fragments, duplicate detection, and union-find group merging (merges can
/// only occur during the exploration phase, before any winners exist).
class Memo {
 public:
  explicit Memo(QueryContext* ctx) : ctx_(ctx) {}

  /// Inserts a standalone tree; returns its root group.
  Result<GroupId> InsertTree(const LogicalExpr& tree);

  /// Inserts a rule-produced fragment into group `target`. Returns the new
  /// m-expr id, or kInvalidMExpr if the root was already present (duplicate).
  Result<MExprId> InsertRuleExpr(const RuleExprPtr& expr, GroupId target);

  /// Inserts `expr`'s children as fragments and its root into `target`, or,
  /// when `target` is kInvalidGroup, into the group already holding it or a
  /// new group. Returns the root's m-expr and whether it is new. The root
  /// must be an operator, not a bare group.
  Result<std::pair<MExprId, bool>> InsertOp(const RuleExprPtr& expr,
                                            GroupId target);

  /// Union-find root of `g`.
  GroupId Find(GroupId g) const;

  /// The logical properties `op` derives over the current props of
  /// `children`.
  Result<LogicalProps> DeriveProps(const LogicalOp& op,
                                   const std::vector<GroupId>& children) const;

  const Group& group(GroupId g) const { return groups_[Find(g)]; }
  Group& mutable_group(GroupId g) { return groups_[Find(g)]; }
  const LogicalMExpr& mexpr(MExprId m) const { return mexprs_[m]; }
  LogicalMExpr& mutable_mexpr(MExprId m) { return mexprs_[m]; }

  /// Child group of `m` at `i`, canonicalized.
  GroupId ChildGroup(const LogicalMExpr& m, int i) const {
    return Find(m.children[i]);
  }

  int num_groups() const { return live_groups_; }  ///< representative groups
  int num_mexprs() const { return static_cast<int>(mexprs_.size()); }

  /// Total groups ever created, including ones merged away by union-find.
  /// Raw iteration for the verifier; use Find() to test liveness.
  int num_raw_groups() const { return static_cast<int>(groups_.size()); }
  /// Group slot `g` without union-find canonicalization (merged-away slots
  /// have empty mexprs). Verifier use only; prefer group().
  const Group& raw_group(GroupId g) const { return groups_[g]; }

  QueryContext* ctx() { return ctx_; }
  const QueryContext* ctx() const { return ctx_; }

  /// Debug dump of all groups and expressions.
  std::string ToString() const;

 private:
  struct MExprKey {
    size_t op_hash;
    LogicalOp op;
    std::vector<GroupId> children;
  };
  struct KeyHash {
    size_t operator()(const MExprKey& k) const;
  };
  struct KeyEq {
    bool operator()(const MExprKey& a, const MExprKey& b) const;
  };

  /// Inserts op+children. If target == kInvalidGroup a fresh group is
  /// created unless the expression already exists (its group is reused).
  /// Returns {mexpr id or existing id, inserted?}.
  Result<std::pair<MExprId, bool>> Insert(LogicalOp op,
                                          std::vector<GroupId> children,
                                          GroupId target);

  Result<GroupId> InsertTreeRec(const LogicalExpr& tree);

  /// Merges the groups of `a` and `b`; winners must be empty.
  Status Merge(GroupId a, GroupId b);

  QueryContext* ctx_;
  std::vector<Group> groups_;
  std::vector<LogicalMExpr> mexprs_;
  mutable std::vector<GroupId> parent_link_;  // union-find
  std::unordered_map<MExprKey, MExprId, KeyHash, KeyEq> index_;
  int live_groups_ = 0;
};

}  // namespace oodb

#endif  // OODB_VOLCANO_MEMO_H_
