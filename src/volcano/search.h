// The search engine: exhaustive transformation closure (exploration)
// followed by top-down, goal-directed costing driven by required physical
// property vectors — the Volcano strategy the paper relies on ("the search
// process considers only those subplans that can deliver the physical
// properties that are required by the algorithm of the containing plan").
#ifndef OODB_VOLCANO_SEARCH_H_
#define OODB_VOLCANO_SEARCH_H_

#include <memory>
#include <vector>

#include "src/volcano/rule.h"

namespace oodb {

/// One-shot search engine: insert a query, explore, optimize. Constructed
/// per optimization by the Optimizer facade.
class SearchEngine {
 public:
  SearchEngine(QueryContext* qctx, const CostModel* cost_model,
               const OptimizerOptions* opts);

  void AddTransformation(std::unique_ptr<TransformationRule> rule);
  void AddImplRule(std::unique_ptr<ImplRule> rule);
  void AddEnforcer(std::unique_ptr<Enforcer> enforcer);

  /// Optimizes `input`, requiring `required` of the root. Stats are
  /// accumulated into `*stats`.
  Result<PlanNodePtr> Optimize(const LogicalExpr& input,
                               const PhysProps& required, SearchStats* stats);

  Memo& memo() { return memo_; }

 private:
  /// Applies transformation rules to fixpoint over the whole memo.
  Status Explore();

  /// The optimal plan for `g` under `required` if one costs at most
  /// `limit`. On failure `*bound` is a lower bound on the cost of every plan
  /// (infinite when there is none), so a caller knows which larger limits
  /// could succeed.
  Result<PlanNodePtr> OptimizeGroup(GroupId g, PhysProps required, int depth,
                                    double limit, double* bound);

  QueryContext* qctx_;
  const CostModel* cost_model_;
  const OptimizerOptions* opts_;
  Memo memo_;
  OptContext octx_;

  std::vector<std::unique_ptr<TransformationRule>> transformations_;
  std::vector<std::unique_ptr<ImplRule>> impl_rules_;
  std::vector<std::unique_ptr<Enforcer>> enforcers_;

  /// Per visited m-expr: the sum of its child-group sizes at the last
  /// visit (child-matching rules re-fire when it changes).
  std::vector<int64_t> child_sizes_;
};

}  // namespace oodb

#endif  // OODB_VOLCANO_SEARCH_H_
