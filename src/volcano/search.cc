#include "src/volcano/search.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "src/trace/opt_trace.h"

namespace oodb {

namespace {
constexpr double kNoLimit = std::numeric_limits<double>::infinity();
}  // namespace

void CountRuleOutput(const OptContext& ctx, const char* rule, GroupId g,
                     MExprId inserted) {
  if (inserted == kInvalidMExpr) {
    if (ctx.stats != nullptr) ++ctx.stats->duplicates;
    return;
  }
  if (ctx.opts->trace_sink == nullptr) return;
  // Rule firings dominate the event stream; the (group, mexpr) ids identify
  // the produced expression in the memo without paying for expression
  // rendering on the hot path.
  OptEvent ev;
  ev.kind = OptEventKind::kRuleFired;
  ev.rule = rule;
  ev.group = static_cast<int>(g);
  ev.mexpr = static_cast<int>(inserted);
  ctx.opts->trace_sink->Record(std::move(ev));
}

SearchEngine::SearchEngine(QueryContext* qctx, const CostModel* cost_model,
                           const OptimizerOptions* opts)
    : qctx_(qctx), cost_model_(cost_model), opts_(opts), memo_(qctx) {
  octx_.qctx = qctx_;
  octx_.memo = &memo_;
  octx_.cost_model = cost_model_;
  octx_.opts = opts_;
}

void SearchEngine::AddTransformation(std::unique_ptr<TransformationRule> rule) {
  transformations_.push_back(std::move(rule));
}

void SearchEngine::AddImplRule(std::unique_ptr<ImplRule> rule) {
  impl_rules_.push_back(std::move(rule));
}

void SearchEngine::AddEnforcer(std::unique_ptr<Enforcer> enforcer) {
  enforcers_.push_back(std::move(enforcer));
}

Status SearchEngine::Explore() {
  const size_t num_rules = transformations_.size();
  if (num_rules > 64) {
    return Status::Internal("more than 64 transformation rules");
  }
  // The rule switches cannot change during a search: resolve the names once
  // instead of for every (m-expr, rule) pair on every sweep.
  uint64_t enabled = 0;
  for (size_t r = 0; r < num_rules; ++r) {
    if (!opts_->IsDisabled(transformations_[r]->name())) enabled |= 1ull << r;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    // New m-exprs appended during the pass are visited in the same pass.
    for (MExprId m = 0; m < static_cast<MExprId>(memo_.num_mexprs()); ++m) {
      if (opts_->governor != nullptr) {
        OODB_RETURN_IF_ERROR(opts_->governor->CheckSearch(
            memo_.num_groups(), memo_.num_mexprs()));
      }
      if (static_cast<size_t>(m) == child_sizes_.size()) {
        child_sizes_.push_back(-1);
      }
      int64_t child_sizes = 0;
      for (GroupId c : memo_.mexpr(m).children) {
        child_sizes += memo_.group(c).mexprs.size();
      }
      bool children_grew = child_sizes != child_sizes_[m];
      for (size_t r = 0; r < num_rules; ++r) {
        const TransformationRule& rule = *transformations_[r];
        uint64_t bit = 1ull << r;
        if (rule.root_kind() != memo_.mexpr(m).op.kind) continue;
        if ((enabled & bit) == 0) continue;
        bool fired_before = (memo_.mexpr(m).applied_rules & bit) != 0;
        if (fired_before && !(rule.matches_children() && children_grew)) {
          continue;
        }
        memo_.mutable_mexpr(m).applied_rules |= bit;
        std::vector<RuleExprPtr> out;
        OODB_RETURN_IF_ERROR(rule.Apply(octx_, memo_.mexpr(m), &out));
        if (octx_.stats != nullptr) ++octx_.stats->transformation_firings;
        GroupId target = memo_.Find(memo_.mexpr(m).group);
        for (const RuleExprPtr& e : out) {
          OODB_ASSIGN_OR_RETURN(MExprId inserted,
                                memo_.InsertRuleExpr(e, target));
          CountRuleOutput(octx_, rule.name(), target, inserted);
          if (inserted == kInvalidMExpr) continue;
          if (rule.self_inverse()) {
            memo_.mutable_mexpr(inserted).applied_rules |= bit;
          }
          changed = true;
        }
      }
      child_sizes_[m] = child_sizes;
      // Re-check sizes next round; if a rule enlarged this m-expr's children
      // after we recorded them, the outer loop runs again anyway because
      // `changed` is set when anything was inserted.
    }
  }
  return Status::OK();
}

Result<PlanNodePtr> SearchEngine::OptimizeGroup(GroupId g, PhysProps required,
                                                int depth, double limit,
                                                double* bound) {
  *bound = kNoLimit;
  if (depth > 100) return Status::PlanError("optimization recursion too deep");
  if (opts_->governor != nullptr) {
    OODB_RETURN_IF_ERROR(opts_->governor->CheckOptimizeEntry());
  }
  if (!opts_->enable_pruning) limit = kNoLimit;
  g = memo_.Find(g);
  // Normalize: only loadable, in-scope bindings can be required in memory.
  required.in_memory = LoadableBindings(
      required.in_memory.Intersect(memo_.group(g).props.scope), *qctx_);

  {
    Group& grp = memo_.mutable_group(g);
    auto it = grp.winners.find(required);
    if (it != grp.winners.end()) {
      const Winner& w = it->second;
      if (w.in_progress) {
        return Status::PlanError("cyclic property requirement");
      }
      if (w.plan) return w.plan;  // stored plans are always optimal
      if (w.complete) {
        return Status::PlanError("no plan can deliver required properties");
      }
      // Search was abandoned under a cost limit; re-run only if the new
      // limit can reveal something the old one could not.
      if (limit < w.lower_bound) {
        *bound = w.lower_bound;
        return Status::PlanError("pruned: no plan within cost limit");
      }
      grp.winners.erase(it);
    }
    grp.winners.emplace(required, Winner{nullptr, true, true, 0.0});
  }
  if (opts_->trace_sink != nullptr) {
    // One per costing goal, so as frequent as rule firings: the group and
    // its cost limit, without rendering the required properties.
    OptEvent ev;
    ev.kind = OptEventKind::kGroupExplored;
    ev.group = static_cast<int>(g);
    if (limit < kNoLimit) ev.cost = limit;
    opts_->trace_sink->Record(std::move(ev));
  }

  // `upper` is the running branch-and-bound bound: plans costing more are
  // not interesting (either over the caller's limit or beaten by `best`).
  double upper = limit;
  PlanNodePtr best;
  // The cheapest any alternative cut by the bound could cost. While no plan
  // is found, `upper` is the caller's limit, so this is a lower bound on
  // every plan of the group.
  double floor = kNoLimit;
  auto cut = [&](double lower) { floor = std::min(floor, lower); };
  // Prunes are frequent under a tight bound: like winner replacements they
  // record the operator kind, the cost and a short reason, never a rendered
  // expression, so a traced search stays within its overhead gate.
  auto trace_prune = [&](const char* rule_name, const PhysicalOp& op,
                         double cost, const char* why) {
    if (opts_->trace_sink == nullptr) return;
    OptEvent ev;
    ev.kind = OptEventKind::kBranchPruned;
    if (rule_name != nullptr) ev.rule = rule_name;
    ev.group = static_cast<int>(g);
    ev.cost = cost;
    ev.op = PhysOpKindName(op.kind);
    ev.detail = why;
    opts_->trace_sink->Record(std::move(ev));
  };
  auto consider = [&](PlanNodePtr node) {
    if (node->total_cost.total() > upper) {
      cut(node->total_cost.total());
      trace_prune(nullptr, node->op, node->total_cost.total(),
                  "plan > bound");
      return;
    }
    upper = node->total_cost.total();
    if (opts_->trace_sink != nullptr) {
      // Winner replacements are frequent during costing; the operator kind
      // plus the new bound tell the cost-trajectory story without paying
      // for full expression rendering inside the search loop.
      OptEvent ev;
      ev.kind = OptEventKind::kWinnerReplaced;
      ev.group = static_cast<int>(g);
      ev.cost = upper;
      ev.op = PhysOpKindName(node->op.kind);
      opts_->trace_sink->Record(std::move(ev));
    }
    best = std::move(node);
  };

  // Every implementation alternative of the group's m-exprs. Under a cost
  // limit the cheapest by local cost are costed first: an early cheap plan
  // tightens the bound before the expensive alternatives (cartesian joins,
  // say) would search their inputs.
  struct Candidate {
    PhysAlternative alt;
    const char* rule;
  };
  std::vector<Candidate> candidates;
  const std::vector<MExprId> mexprs = memo_.group(g).mexprs;  // copy: stable
  for (MExprId mid : mexprs) {
    const LogicalMExpr& m = memo_.mexpr(mid);
    for (const std::unique_ptr<ImplRule>& rule : impl_rules_) {
      if (rule->root_kind() != m.op.kind) continue;
      if (opts_->IsDisabled(rule->name())) continue;
      std::vector<PhysAlternative> alts;
      OODB_RETURN_IF_ERROR(rule->Apply(octx_, m, required, &alts));
      if (octx_.stats != nullptr) ++octx_.stats->impl_firings;
      for (PhysAlternative& alt : alts) {
        if (octx_.stats != nullptr) ++octx_.stats->phys_alternatives;
        if (opts_->governor != nullptr) {
          OODB_RETURN_IF_ERROR(opts_->governor->ChargeAlternative());
        }
        if (!alt.delivered.Satisfies(required)) continue;
        candidates.push_back(Candidate{std::move(alt), rule->name()});
      }
    }
  }
  if (opts_->enable_pruning) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.alt.local_cost.total() <
                              b.alt.local_cost.total();
                     });
  }
  for (Candidate& cand : candidates) {
    PhysAlternative& alt = cand.alt;
    double spent = alt.local_cost.total();
    if (spent > upper) {
      cut(spent);
      trace_prune(cand.rule, alt.op, spent, "local > bound");
      continue;
    }
    std::vector<PlanNodePtr> children;
    bool ok = true;
    for (const PhysInput& in : alt.inputs) {
      double child_bound;
      Result<PlanNodePtr> child = OptimizeGroup(
          in.group, in.required, depth + 1, upper - spent, &child_bound);
      if (!child.ok()) {
        // Ordinary failures ("no plan under this limit") just discard the
        // alternative; a governor trip must abort the whole search.
        if (IsGovernorStatus(child.status().code())) return child.status();
        cut(spent + child_bound);
        ok = false;
        break;
      }
      spent += (*child)->total_cost.total();
      if (spent > upper) {
        cut(spent);
        trace_prune(cand.rule, alt.op, spent, "inputs > bound");
        ok = false;
        break;
      }
      children.push_back(std::move(child).value());
    }
    if (!ok) continue;
    consider(PlanNode::Make(std::move(alt.op), std::move(children),
                            memo_.group(g).props, alt.delivered,
                            alt.local_cost));
  }

  for (const std::unique_ptr<Enforcer>& enf : enforcers_) {
    if (opts_->IsDisabled(enf->name())) continue;
    std::vector<EnforcerAlt> alts;
    OODB_RETURN_IF_ERROR(enf->Apply(octx_, g, required, &alts));
    if (octx_.stats != nullptr) ++octx_.stats->enforcer_firings;
    for (EnforcerAlt& alt : alts) {
      if (octx_.stats != nullptr) ++octx_.stats->phys_alternatives;
      if (opts_->governor != nullptr) {
        OODB_RETURN_IF_ERROR(opts_->governor->ChargeAlternative());
      }
      if (alt.child_required == required) continue;  // no progress
      if (!alt.delivered.Satisfies(required)) continue;
      if (alt.local_cost.total() > upper) {
        cut(alt.local_cost.total());
        trace_prune(enf->name(), alt.op, alt.local_cost.total(),
                    "local > bound");
        continue;
      }
      double child_bound;
      Result<PlanNodePtr> child =
          OptimizeGroup(g, alt.child_required, depth + 1,
                        upper - alt.local_cost.total(), &child_bound);
      if (!child.ok()) {
        if (IsGovernorStatus(child.status().code())) return child.status();
        cut(alt.local_cost.total() + child_bound);
        continue;
      }
      if (opts_->trace_sink != nullptr) {
        OptEvent ev;
        ev.kind = OptEventKind::kEnforcerInserted;
        ev.rule = enf->name();
        ev.group = static_cast<int>(g);
        ev.cost = alt.local_cost.total();
        ev.detail = alt.op.ToString(*qctx_);
        opts_->trace_sink->Record(std::move(ev));
      }
      consider(PlanNode::Make(std::move(alt.op), {std::move(child).value()},
                              memo_.group(g).props, alt.delivered,
                              alt.local_cost));
    }
  }

  {
    Winner w;
    w.plan = best;
    if (!best) {
      // Definitive only if the limit cut no branch. The lower bound is
      // meaningful (and read) only for an abandoned search; a definitive
      // no-plan verdict keeps it finite so the memo verifier's cost
      // invariants hold for every stored winner.
      w.complete = floor >= kNoLimit;
      w.lower_bound = w.complete ? 0.0 : floor;
    }
    memo_.mutable_group(g).winners[required] = std::move(w);
  }
  if (!best) {
    *bound = floor;
    return Status::PlanError("no plan found for group " + std::to_string(g));
  }
  return best;
}

Result<PlanNodePtr> SearchEngine::Optimize(const LogicalExpr& input,
                                           const PhysProps& required,
                                           SearchStats* stats) {
  octx_.stats = stats;
  auto start = std::chrono::steady_clock::now();
  OODB_ASSIGN_OR_RETURN(GroupId root, memo_.InsertTree(input));
  OODB_RETURN_IF_ERROR(Explore());
  double bound;
  Result<PlanNodePtr> plan = OptimizeGroup(root, required, 0, kNoLimit, &bound);
  auto end = std::chrono::steady_clock::now();
  if (octx_.stats != nullptr) {
    octx_.stats->groups = memo_.num_groups();
    octx_.stats->logical_mexprs = memo_.num_mexprs();
    octx_.stats->optimize_seconds +=
        std::chrono::duration<double>(end - start).count();
    if (opts_->governor != nullptr) {
      octx_.stats->governor = opts_->governor->stats();
    }
  }
  return plan;
}

}  // namespace oodb
