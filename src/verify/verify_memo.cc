// The memo layer of the verifier: every m-expr belongs to the group that
// lists it, children reference live groups, logical properties of a group
// (scope and cardinality) match what each of its expressions derives,
// winners are finished searches with finite, additive costs whose plans
// satisfy their property keys.
#include "src/verify/verify.h"

#include <algorithm>
#include <cmath>

namespace oodb {

namespace {

std::string GroupPath(GroupId g) { return "group#" + std::to_string(g); }

std::string MExprPath(const Memo& memo, const LogicalMExpr& m) {
  std::string op = memo.ctx() != nullptr ? m.op.ToString(*memo.ctx())
                                         : LogicalOpKindName(m.op.kind);
  return GroupPath(m.group) + "/mexpr#" + std::to_string(m.id) + "(" + op +
         ")";
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

/// |a - b| within `tol` of the larger magnitude (of 1 below it).
bool Close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Shallow cost sanity for a winner's plan root: finite, non-negative local
/// cost (winners are produced by the search, never by the Exchange pass, so
/// negative locals are always corruption here), total additive over the
/// immediate children. The full plan extracted for the query gets the deep
/// recursive check in VerifyPlan.
void CheckWinnerPlan(const PlanNode& plan, const std::string& path,
                     const VerifyOptions& opts, VerifyReport* report) {
  if (!std::isfinite(plan.local_cost.io_s) ||
      !std::isfinite(plan.local_cost.cpu_s) ||
      !std::isfinite(plan.total_cost.io_s) ||
      !std::isfinite(plan.total_cost.cpu_s)) {
    report->Add(invariant::kMemoWinnerCost, path,
                "winner plan cost is not finite");
    return;
  }
  if (plan.local_cost.io_s < 0.0 || plan.local_cost.cpu_s < 0.0) {
    report->Add(invariant::kMemoWinnerCost, path,
                "winner plan has negative local cost");
  }
  double io = plan.local_cost.io_s;
  double cpu = plan.local_cost.cpu_s;
  for (const PlanNodePtr& c : plan.children) {
    io += c->total_cost.io_s;
    cpu += c->total_cost.cpu_s;
  }
  double tol = opts.cost_rel_tolerance;
  if (!Close(io, plan.total_cost.io_s, tol) ||
      !Close(cpu, plan.total_cost.cpu_s, tol)) {
    report->Add(invariant::kMemoWinnerCost, path,
                "winner total cost is not local + sum of child totals: a "
                "physical alternative undercuts its inputs' lower bound");
  }
}

/// Canonical Select: its predicate is the canonical conjunction of its
/// distinct conjuncts, and it never sits over a group whose only
/// expressions are Selects (two stacked Selects are one). A group that
/// also holds other operators may hold a Select too: the join-order rule
/// inserts joins, Mats and Unnests into the closed group a Select heads.
void CheckSelect(const Memo& memo, const LogicalMExpr& m,
                 const std::string& path, VerifyReport* report) {
  if (!ExprPtrEquals(m.op.pred, CanonicalConjunction(
                                    ScalarExpr::SplitConjuncts(m.op.pred)))) {
    report->Add(invariant::kMemoSelectCanonical, path,
                "Select predicate is not the canonical conjunction of its "
                "distinct conjuncts");
  }
  const Group& child = memo.group(m.children[0]);
  for (MExprId c : child.mexprs) {
    if (memo.mexpr(c).op.kind != LogicalOpKind::kSelect) return;
  }
  report->Add(invariant::kMemoSelectCanonical, path,
              "Select over " + GroupPath(memo.Find(m.children[0])) +
                  ", whose only expressions are Selects");
}

}  // namespace

VerifyReport VerifyMemoReport(const Memo& memo, const VerifyOptions& opts) {
  VerifyReport report;
  const QueryContext* ctx = memo.ctx();
  const int raw_groups = memo.num_raw_groups();

  auto full = [&report, &opts]() {
    return static_cast<int>(report.violations().size()) >=
           opts.max_violations;
  };

  // --- m-exprs: identity, membership, arity, liveness of children, and
  // logical-property agreement with the owning group. ---
  for (MExprId id = 0; id < memo.num_mexprs() && !full(); ++id) {
    const LogicalMExpr& m = memo.mexpr(id);
    std::string path = MExprPath(memo, m);
    if (m.id != id) {
      report.Add(invariant::kMemoMembership, path,
                 "m-expr stored at slot " + std::to_string(id) +
                     " carries id " + std::to_string(m.id));
    }
    if (m.group < 0 || m.group >= raw_groups) {
      report.Add(invariant::kMemoDanglingGroup, path,
                 "m-expr's owning group id " + std::to_string(m.group) +
                     " does not exist");
      continue;
    }
    const Group& owner = memo.group(m.group);
    bool listed = false;
    for (MExprId member : owner.mexprs) {
      if (member == id) listed = true;
    }
    if (!listed) {
      report.Add(invariant::kMemoMembership, path,
                 "m-expr is not listed by its owning group " +
                     GroupPath(memo.Find(m.group)));
    }
    if (static_cast<int>(m.children.size()) != m.op.Arity()) {
      report.Add(invariant::kMemoArity, path,
                 std::string(LogicalOpKindName(m.op.kind)) + " m-expr has " +
                     std::to_string(m.children.size()) + " children (want " +
                     std::to_string(m.op.Arity()) + ")");
      continue;
    }
    bool children_ok = true;
    std::vector<BindingSet> child_scopes;
    child_scopes.reserve(m.children.size());
    for (GroupId c : m.children) {
      if (c < 0 || c >= raw_groups) {
        report.Add(invariant::kMemoDanglingGroup, path,
                   "child group id " + std::to_string(c) + " does not exist");
        children_ok = false;
        break;
      }
      const Group& child = memo.group(c);
      if (child.mexprs.empty()) {
        report.Add(invariant::kMemoEmptyGroup, path,
                   "child " + GroupPath(memo.Find(c)) +
                       " is live but has no expressions");
        children_ok = false;
        break;
      }
      child_scopes.push_back(child.props.scope);
    }
    if (!children_ok) continue;
    if (m.op.kind == LogicalOpKind::kSelect) {
      CheckSelect(memo, m, path, &report);
    }
    if (ctx == nullptr) continue;
    if (Status st = m.op.Validate(*ctx, child_scopes); !st.ok()) {
      report.Add(invariant::kMemoOpInvalid, path, st.message());
      continue;
    }
    // Every expression in a group must derive the group's logical
    // properties — the "all exprs in a group share logical properties"
    // invariant: the same scope, and the same cardinality within 1e-9
    // relative, absolute below one row (the rounding of multiplying its
    // factors in another order).
    Result<LogicalProps> props = memo.DeriveProps(m.op, m.children);
    if (!props.ok()) continue;
    if (!(props->scope == owner.props.scope)) {
      report.Add(invariant::kMemoScopeDrift, path,
                 "m-expr derives a different scope than its group's logical "
                 "properties carry");
    }
    if (!Close(props->card, owner.props.card, 1e-9)) {
      report.Add(invariant::kMemoCardDrift, path,
                 "m-expr derives cardinality " + std::to_string(props->card) +
                     " but its group carries " +
                     std::to_string(owner.props.card));
    }
  }

  // --- groups: slot identity, liveness, property sanity, membership
  // back-references, winner discipline. ---
  for (GroupId g = 0; g < raw_groups && !full(); ++g) {
    const Group& group = memo.raw_group(g);
    std::string path = GroupPath(g);
    if (memo.Find(g) != g) continue;  // merged away; its exprs moved
    if (group.id != g) {
      report.Add(invariant::kMemoMembership, path,
                 "group stored at slot " + std::to_string(g) +
                     " carries id " + std::to_string(group.id));
    }
    if (group.mexprs.empty()) {
      report.Add(invariant::kMemoEmptyGroup, path,
                 "live group has no expressions");
    }
    if (!FiniteNonNegative(group.props.card) ||
        !FiniteNonNegative(group.props.tuple_bytes)) {
      report.Add(invariant::kMemoCard, path,
                 "logical properties carry a non-finite or negative "
                 "cardinality/tuple-bytes estimate");
    }
    for (MExprId member : group.mexprs) {
      if (member < 0 || member >= memo.num_mexprs()) {
        report.Add(invariant::kMemoMembership, path,
                   "group lists non-existent m-expr id " +
                       std::to_string(member));
        continue;
      }
      if (memo.Find(memo.mexpr(member).group) != g) {
        report.Add(invariant::kMemoMembership, path,
                   "group lists mexpr#" + std::to_string(member) +
                       " which belongs to " +
                       GroupPath(memo.Find(memo.mexpr(member).group)));
      }
    }
    for (const auto& [required, winner] : group.winners) {
      std::string wpath = path + "/winner";
      if (winner.in_progress) {
        report.Add(invariant::kMemoWinnerInProgress, wpath,
                   "winner left in-progress after search completed");
        continue;
      }
      if (!std::isfinite(winner.lower_bound)) {
        report.Add(invariant::kMemoWinnerCost, wpath,
                   "winner lower bound is not finite");
      }
      if (winner.plan == nullptr) continue;
      if (!winner.plan->delivered.Satisfies(required)) {
        report.Add(invariant::kMemoWinnerProps, wpath,
                   "winner plan's delivered properties do not satisfy the "
                   "required properties it is filed under");
      }
      if (opts.check_costs) {
        CheckWinnerPlan(*winner.plan, wpath, opts, &report);
      }
    }
  }
  return report;
}

Status VerifyMemo(const Memo& memo, const VerifyOptions& opts) {
  return VerifyMemoReport(memo, opts).ToStatus();
}

}  // namespace oodb
