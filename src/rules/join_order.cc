#include "src/rules/join_order.h"

#include <bit>
#include <unordered_map>
#include <utility>

namespace oodb {

namespace {

/// Wider groups get only Step's moves: enumerating every split of every
/// subset costs 3^n, and ten vertices sharing no conjunct already build
/// about 74,000 m-exprs.
constexpr int kMaxVertices = 10;

uint64_t Bit(int i) { return uint64_t{1} << i; }

/// Calls `f(i)` for each set bit i of `mask`, lowest first.
template <typename F>
void ForBits(uint64_t mask, F&& f) {
  for (; mask != 0; mask &= mask - 1) f(std::countr_zero(mask));
}

/// One search's join graphs, shared by the rule's instances. Vertex sets
/// are binding masks; a closed group (see the header) is named by its scope.
class JoinGraphs {
 public:
  Status Fire(OptContext& ctx, const LogicalMExpr& mexpr,
              std::vector<RuleExprPtr>* out);

 private:
  /// One split of a vertex set: Join(left, right), or, when `unary` names
  /// a Mat or Unnest target t, t's operator over `left`.
  struct Split {
    uint64_t left = 0;
    uint64_t right = 0;
    int unary = -1;
  };
  struct Conjunct {
    ScalarExprPtr expr;
    uint64_t refs = 0;  // a constant conjunct reads the first range
  };

  void Reset(const OptContext& ctx);
  /// The index of query conjunct `c`, -2 for a reference predicate, -1 for
  /// neither.
  int Lookup(const ScalarExprPtr& c) const;
  /// The query conjuncts `m` applies (bit i: conjunct i); nullopt when it
  /// is no operator of a join graph.
  std::optional<uint64_t> Applied(const LogicalMExpr& m);
  std::optional<uint64_t> GroupApplied(GroupId g);
  /// The query conjuncts a scope covers.
  uint64_t Covered(uint64_t scope) const;
  /// `s` can be produced on its own: every Mat target with its source or
  /// from its extent, every Unnest target with its source and every range
  /// (an Unnest stays above the FROM clause).
  bool Realizable(uint64_t s) const;
  /// No vertex of `right` comes before one of `left` in the leaf orders
  /// the input tree and mat-to-join produce: ranges in FROM order, each
  /// Mat target after its source.
  bool Ordered(uint64_t left, uint64_t right) const;
  std::vector<Split> Splits(uint64_t s) const;
  /// Appends every split of `s` over the groups of its parts.
  Status Enumerate(uint64_t s, std::vector<RuleExprPtr>* out);
  /// The group of `s`, created with all its splits when the search has
  /// none; kInvalidGroup when `s` has no split.
  Result<GroupId> GroupFor(uint64_t s);
  RuleExprPtr Leaf(BindingId b) const;
  RuleExprPtr Expr(const Split& split, GroupId left, GroupId right) const;
  /// A group that is no join graph still gets the moves the switches name:
  /// a Join's mirror and a Mat's join with its target's extent (a Filter
  /// over such a join can beat filtering its input first).
  void Step(const LogicalMExpr& m, std::vector<RuleExprPtr>* out) const;

  const OptContext* ctx_ = nullptr;  // the firing's
  Memo* memo_ = nullptr;
  const QueryContext* qctx_ = nullptr;
  bool usable_ = false;
  bool commute_ = true;
  std::vector<Conjunct> conjuncts_;
  uint64_t ranges_ = 0, mats_ = 0, unnests_ = 0, extent_ = 0;
  // Per binding:
  std::vector<ScalarExprPtr> ref_preds_;  // a Mat target's join predicate
  std::vector<uint64_t> before_;          // see Ordered
  std::vector<uint64_t> sourced_by_;      // the targets it is the source of
  std::vector<LogicalOp> gets_;  // a range's Get, a Mat target's extent
  // Per group: whether Applied ran, and its result.
  std::vector<std::pair<bool, std::optional<uint64_t>>> applied_;
  // Enumerated closed groups by scope.
  std::unordered_map<uint64_t, GroupId> groups_;
};

void JoinGraphs::Reset(const OptContext& ctx) {
  memo_ = ctx.memo;
  qctx_ = ctx.qctx;
  commute_ = !ctx.opts->IsDisabled(kRuleJoinCommute);
  const bool mat_to_join = !ctx.opts->IsDisabled(kRuleMatToJoin);
  conjuncts_.clear();
  applied_.clear();
  groups_.clear();
  ranges_ = mats_ = unnests_ = extent_ = 0;
  const BindingTable& bt = qctx_->bindings;
  const int n = bt.size();  // at most 64 (BindingSet)
  ref_preds_.assign(n, nullptr);
  before_.assign(n, 0);
  sourced_by_.assign(n, 0);
  gets_.assign(n, LogicalOp{});
  for (BindingId b = 0; b < n; ++b) {
    const BindingDef& d = bt.def(b);
    if (d.origin == BindingOrigin::kGet) {
      before_[b] = ranges_;
      ranges_ |= Bit(b);
      continue;
    }
    before_[b] = before_[d.parent] | Bit(d.parent);
    sourced_by_[d.parent] |= Bit(b);
    if (d.origin == BindingOrigin::kUnnest) {
      unnests_ |= Bit(b);
      continue;
    }
    mats_ |= Bit(b);
    ref_preds_[b] =
        d.via_field == kInvalidField
            ? ScalarExpr::Cmp(CmpOp::kEq, ScalarExpr::Self(d.parent),
                              ScalarExpr::Self(b))
            : ScalarExpr::RefEq(d.parent, d.via_field, b);
    gets_[b] = LogicalOp::Get(CollectionId::Extent(d.type), b);
    if (mat_to_join && qctx_->catalog->HasExtent(d.type)) extent_ |= Bit(b);
  }
  const uint64_t first_range = ranges_ & (~ranges_ + 1);
  // The input tree holds every query conjunct; rules only move them.
  for (MExprId i = 0; i < memo_->num_mexprs(); ++i) {
    const LogicalMExpr& m = memo_->mexpr(i);
    if (m.op.kind == LogicalOpKind::kGet && (ranges_ & Bit(m.op.binding))) {
      gets_[m.op.binding] = m.op;
    }
    if (m.op.kind != LogicalOpKind::kSelect &&
        m.op.kind != LogicalOpKind::kJoin) {
      continue;
    }
    for (ScalarExprPtr& c : ScalarExpr::SplitConjuncts(m.op.pred)) {
      if (IsConstTrue(c) || Lookup(c) != -1) continue;
      const uint64_t refs = c->ReferencedBindings().bits();
      conjuncts_.push_back(Conjunct{std::move(c), refs ? refs : first_range});
    }
  }
  usable_ = conjuncts_.size() <= 64;
}

int JoinGraphs::Lookup(const ScalarExprPtr& c) const {
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (ExprPtrEquals(conjuncts_[i].expr, c)) return static_cast<int>(i);
  }
  for (const ScalarExprPtr& r : ref_preds_) {
    if (r != nullptr && ExprPtrEquals(r, c)) return -2;
  }
  return -1;
}

std::optional<uint64_t> JoinGraphs::Applied(const LogicalMExpr& m) {
  uint64_t bits = 0;
  switch (m.op.kind) {
    case LogicalOpKind::kGet:
    case LogicalOpKind::kMat:
    case LogicalOpKind::kUnnest:
      break;
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kJoin:
      for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(m.op.pred)) {
        if (IsConstTrue(c)) continue;
        const int i = Lookup(c);
        if (i == -1) return std::nullopt;
        if (i >= 0) bits |= Bit(i);
      }
      break;
    default:
      return std::nullopt;
  }
  for (GroupId c : m.children) {
    std::optional<uint64_t> child = GroupApplied(c);
    if (!child) return std::nullopt;
    bits |= *child;
  }
  return bits;
}

std::optional<uint64_t> JoinGraphs::GroupApplied(GroupId g) {
  g = memo_->Find(g);
  if (applied_.size() <= static_cast<size_t>(g)) {
    applied_.resize(memo_->num_raw_groups());
  }
  if (!applied_[g].first) {
    applied_[g].first = true;  // a group that reaches itself reads nullopt
    // Every expression of a group applies the same conjuncts.
    std::optional<uint64_t> bits =
        Applied(memo_->mexpr(memo_->group(g).mexprs.front()));
    applied_[g].second = bits;
  }
  return applied_[g].second;
}

uint64_t JoinGraphs::Covered(uint64_t scope) const {
  uint64_t bits = 0;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if ((conjuncts_[i].refs & ~scope) == 0) bits |= Bit(static_cast<int>(i));
  }
  return bits;
}

bool JoinGraphs::Realizable(uint64_t s) const {
  bool ok = true;
  ForBits(s & (mats_ | unnests_), [&](int t) {
    const bool with_source = (s & Bit(qctx_->bindings.def(t).parent)) != 0;
    if (unnests_ & Bit(t)) {
      ok = ok && with_source && (ranges_ & ~s) == 0;
    } else {
      ok = ok && (with_source || (extent_ & Bit(t)) != 0);
    }
  });
  return ok;
}

bool JoinGraphs::Ordered(uint64_t left, uint64_t right) const {
  bool ok = true;
  ForBits(left, [&](int b) { ok = ok && (before_[b] & right) == 0; });
  return ok;
}

std::vector<JoinGraphs::Split> JoinGraphs::Splits(uint64_t s) const {
  std::vector<Split> out;
  // Every split, cartesian ones included: a join's inputs need not share a
  // conjunct.
  const uint64_t low = s & (~s + 1), rest = s ^ low;
  for (uint64_t sub = rest;; sub = (sub - 1) & rest) {
    const uint64_t a = low | sub, b = s ^ a;
    if (b != 0 && Realizable(a) && Realizable(b)) {
      if (commute_ || Ordered(a, b)) out.push_back(Split{a, b});
      if (commute_ || Ordered(b, a)) out.push_back(Split{b, a});
    }
    if (sub == 0) break;
  }
  // t's operator over the rest, unless a vertex there reads t.
  ForBits(s & (mats_ | unnests_), [&](int t) {
    const uint64_t a = s & ~Bit(t);
    if ((a & Bit(qctx_->bindings.def(t).parent)) != 0 &&
        (a & sourced_by_[t]) == 0 && Realizable(a)) {
      out.push_back(Split{a, 0, t});
    }
  });
  return out;
}

RuleExprPtr JoinGraphs::Leaf(BindingId b) const {
  RuleExprPtr leaf = RuleExpr::Op(gets_[b]);
  std::vector<ScalarExprPtr> local;
  for (const Conjunct& c : conjuncts_) {
    if (c.refs == Bit(b)) local.push_back(c.expr);
  }
  if (local.empty()) return leaf;
  return RuleExpr::Op(
      LogicalOp::Select(ScalarExpr::CombineConjuncts(std::move(local))),
      {std::move(leaf)});
}

RuleExprPtr JoinGraphs::Expr(const Split& split, GroupId left,
                             GroupId right) const {
  const uint64_t s =
      split.left | split.right | (split.unary >= 0 ? Bit(split.unary) : 0);
  // The conjuncts over `s` that neither input applies.
  std::vector<ScalarExprPtr> cross;
  for (const Conjunct& c : conjuncts_) {
    if ((c.refs & ~s) == 0 && (c.refs & ~split.left) != 0 &&
        (split.unary >= 0 || (c.refs & ~split.right) != 0)) {
      cross.push_back(c.expr);
    }
  }
  if (split.unary >= 0) {
    const BindingId t = split.unary;
    const BindingDef& d = qctx_->bindings.def(t);
    LogicalOp op = (unnests_ & Bit(t))
                       ? LogicalOp::Unnest(d.parent, d.via_field, t)
                   : d.via_field == kInvalidField
                       ? LogicalOp::MatRef(d.parent, t)
                       : LogicalOp::Mat(d.parent, d.via_field, t);
    RuleExprPtr expr = RuleExpr::Op(std::move(op), {RuleExpr::GroupLeaf(left)});
    if (cross.empty()) return expr;
    return RuleExpr::Op(
        LogicalOp::Select(ScalarExpr::CombineConjuncts(std::move(cross))),
        {std::move(expr)});
  }
  // A Mat target split from its source joins it on the reference.
  ForBits(s & mats_, [&](int t) {
    const uint64_t source = Bit(qctx_->bindings.def(t).parent);
    if ((s & source) != 0 &&
        ((split.left & Bit(t)) != 0) != ((split.left & source) != 0)) {
      cross.push_back(ref_preds_[t]);
    }
  });
  return RuleExpr::Op(LogicalOp::Join(CanonicalConjunction(std::move(cross))),
                      {RuleExpr::GroupLeaf(left), RuleExpr::GroupLeaf(right)});
}

Status JoinGraphs::Enumerate(uint64_t s, std::vector<RuleExprPtr>* out) {
  for (const Split& split : Splits(s)) {
    OODB_ASSIGN_OR_RETURN(GroupId left, GroupFor(split.left));
    GroupId right = kInvalidGroup;
    if (split.unary < 0) {
      OODB_ASSIGN_OR_RETURN(right, GroupFor(split.right));
    }
    if (left != kInvalidGroup && (split.unary >= 0 || right != kInvalidGroup)) {
      out->push_back(Expr(split, left, right));
    }
  }
  return Status::OK();
}

Result<GroupId> JoinGraphs::GroupFor(uint64_t s) {
  if (auto it = groups_.find(s); it != groups_.end()) {
    return memo_->Find(it->second);
  }
  // One firing builds a lattice of subsets: the governor may stop it
  // between two groups.
  if (QueryGovernor* governor = ctx_->opts->governor; governor != nullptr) {
    OODB_RETURN_IF_ERROR(
        governor->CheckSearch(memo_->num_groups(), memo_->num_mexprs()));
  }
  std::vector<RuleExprPtr> exprs;
  if (std::popcount(s) == 1) {
    exprs.push_back(Leaf(std::countr_zero(s)));
  } else {
    OODB_RETURN_IF_ERROR(Enumerate(s, &exprs));
  }
  // A new group gets all its splits at once: expressions that bind it
  // never see it grow.
  GroupId g = kInvalidGroup;
  for (const RuleExprPtr& e : exprs) {
    // The first expression joins the group holding it or a new one.
    OODB_ASSIGN_OR_RETURN(auto inserted, memo_->InsertOp(e, g));
    g = memo_->Find(memo_->mexpr(inserted.first).group);
    CountRuleOutput(*ctx_, kRuleJoinOrder, g,
                    inserted.second ? inserted.first : kInvalidMExpr);
  }
  if (g != kInvalidGroup) groups_.emplace(s, g);
  return g;
}

void JoinGraphs::Step(const LogicalMExpr& m,
                      std::vector<RuleExprPtr>* out) const {
  if (m.op.kind == LogicalOpKind::kJoin && commute_) {
    out->push_back(RuleExpr::Op(m.op, {RuleExpr::GroupLeaf(m.children[1]),
                                       RuleExpr::GroupLeaf(m.children[0])}));
  }
  const BindingId t = m.op.target;
  if (m.op.kind != LogicalOpKind::kMat || (extent_ & Bit(t)) == 0) return;
  out->push_back(RuleExpr::Op(
      LogicalOp::Join(ref_preds_[t]),
      {RuleExpr::GroupLeaf(m.children[0]), RuleExpr::Op(gets_[t])}));
}

Status JoinGraphs::Fire(OptContext& ctx, const LogicalMExpr& mexpr,
                        std::vector<RuleExprPtr>* out) {
  if (ctx.memo != memo_ || ctx.qctx != qctx_) Reset(ctx);
  ctx_ = &ctx;
  const GroupId g = memo_->Find(mexpr.group);
  const uint64_t scope = memo_->group(g).props.scope.bits();
  std::optional<uint64_t> applied;
  if (usable_ && std::popcount(scope) <= kMaxVertices) applied = Applied(mexpr);
  if (!applied || *applied != Covered(scope) || std::popcount(scope) < 2) {
    Step(mexpr, out);
    return Status::OK();
  }
  auto [it, fresh] = groups_.try_emplace(scope, g);
  if (!fresh && memo_->Find(it->second) == g) return Status::OK();
  // When another group holds this expression, inserting the splits here
  // merges the two.
  return Enumerate(scope, out);
}

/// One instance per root kind; all share `graphs`.
class JoinOrder : public TransformationRule {
 public:
  JoinOrder(LogicalOpKind kind, std::shared_ptr<JoinGraphs> graphs)
      : kind_(kind), graphs_(std::move(graphs)) {}
  const char* name() const override { return kRuleJoinOrder; }
  LogicalOpKind root_kind() const override { return kind_; }
  /// Its joins need no firing of their own: a join graph is enumerated
  /// once, and a mirrored join mirrors back.
  bool self_inverse() const override { return kind_ == LogicalOpKind::kJoin; }

  Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
               std::vector<RuleExprPtr>* out) const override {
    // The rule inserts groups as it goes, which may move `mexpr`.
    const LogicalMExpr copy = mexpr;
    return graphs_->Fire(ctx, copy, out);
  }

 private:
  LogicalOpKind kind_;
  std::shared_ptr<JoinGraphs> graphs_;
};

}  // namespace

std::vector<std::unique_ptr<TransformationRule>> MakeJoinOrderRules() {
  auto graphs = std::make_shared<JoinGraphs>();
  std::vector<std::unique_ptr<TransformationRule>> rules;
  for (LogicalOpKind kind : {LogicalOpKind::kSelect, LogicalOpKind::kMat,
                             LogicalOpKind::kUnnest, LogicalOpKind::kJoin}) {
    rules.push_back(std::make_unique<JoinOrder>(kind, graphs));
  }
  return rules;
}

}  // namespace oodb
