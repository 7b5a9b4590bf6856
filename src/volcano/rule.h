// Rule interfaces of the optimizer generator: transformation rules
// (logical -> logical), implementation rules (logical -> physical algorithm),
// and property enforcers. Rules are registered with the search engine and
// individually switchable by name — the mechanism behind the paper's
// "simulated other optimizers by disabling various rules" methodology (§4).
#ifndef OODB_VOLCANO_RULE_H_
#define OODB_VOLCANO_RULE_H_

#include <string>
#include <vector>

#include "src/common/governor.h"
#include "src/cost/cost_model.h"
#include "src/volcano/memo.h"

namespace oodb {

class OptTrace;

/// Build-configured default for OptimizerOptions::verify_plans (the
/// OODB_VERIFY_PLANS CMake option; on by default in Debug builds).
#ifdef OODB_VERIFY_PLANS_DEFAULT
inline constexpr bool kVerifyPlansDefault = true;
#else
inline constexpr bool kVerifyPlansDefault = false;
#endif

/// Search statistics reported per optimization (Table 2's "Optim. Time" and
/// "% of Exh. Search" columns derive from these).
struct SearchStats {
  int groups = 0;
  int logical_mexprs = 0;
  int phys_alternatives = 0;     ///< physical alternatives costed
  int transformation_firings = 0;
  /// Transformation-rule outputs whose root was already in the memo.
  int duplicates = 0;
  int impl_firings = 0;
  int enforcer_firings = 0;
  /// Wall-clock (steady_clock) time spent inside the search engine — the
  /// quantity the paper's "<1 sec on today's workstations" goal bounds.
  double optimize_seconds = 0.0;

  /// True when this result was served from the plan cache instead of a
  /// fresh search (the firing/expression counters then describe the search
  /// that originally produced the cached plan).
  bool plan_cached = false;
  /// Snapshot of the serving cache's cumulative counters at answer time
  /// (all zero when no cache is configured).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;

  /// True when this plan came from a mid-query re-optimization under
  /// observed-cardinality feedback (see Session's adaptive path). Such
  /// plans are query-local and never cached.
  bool replanned = false;
  /// True when the cost-based search tripped the resource governor and the
  /// plan is the greedy baseline's instead (see Session); `degrade_reason`
  /// carries the trip message. Degraded plans are never cached.
  bool degraded = false;
  std::string degrade_reason;
  /// Governor trip/charge counters for this query (zero when ungoverned).
  GovernorStats governor;

  /// True when the static verifier (src/verify/) ran over the memo and the
  /// winning plan after this optimization.
  bool verified = false;
  /// Non-empty when verification found violations: one diagnostic per line,
  /// each "[invariant] at operator/path: detail". A non-empty value marks
  /// the plan as suspect — the Session refuses to cache it and Explain
  /// surfaces the diagnostics.
  std::string verify_error;

  /// Total expressions generated — the exhaustive-search denominator.
  int expressions() const { return logical_mexprs + phys_alternatives; }
};

/// Optimizer configuration.
struct OptimizerOptions {
  CostModelOptions cost;
  /// Names of rules/enforcers to disable (see rule name constants below).
  std::vector<std::string> disabled_rules;
  /// Extensions, off by default to match the paper's configuration:
  /// warm-start assembly (Lesson 7) and merge join + sort enforcer.
  bool enable_warm_start_assembly = false;
  bool enable_merge_join = false;
  /// Branch-and-bound cost-limit pruning during the costing phase (the
  /// paper's unevaluated "mechanisms for heuristic guidance and pruning").
  /// Plans remain optimal; only search effort shrinks.
  bool enable_pruning = false;
  /// Maximum Exchange degree of parallelism the post-optimization
  /// parallelization pass (src/physical/parallel.h) may plant. 1 (the
  /// default) skips the pass entirely, preserving the seed's serial plans
  /// bit for bit; the pass picks the cheapest dop in [1, max_dop] per plan.
  int max_dop = 1;
  /// Structured search-trace sink (src/trace/opt_trace.h): rule firings,
  /// group exploration, winner replacements, pruned branches, enforcer
  /// insertions, and the verifier outcome, ring-buffered with text/JSON
  /// dumps. Non-owning; null (the default) records nothing and keeps the
  /// search bit-identical. Like `governor` and `verify_plans`,
  /// deliberately excluded from HashOptimizerOptions: observability never
  /// changes which plan wins.
  OptTrace* trace_sink = nullptr;
  /// Plan-cache capacity in entries for caches the Session creates on
  /// demand; 0 (the default) disables caching entirely, preserving the
  /// seed optimizer's behavior bit for bit.
  size_t plan_cache_capacity = 0;
  /// Parameterize comparison literals out of plan-cache keys (selectivity-
  /// bucketed sharing; see src/query/fingerprint.h). When false every
  /// literal keys exactly.
  bool plan_cache_parameterize = true;
  /// Run the static verifier (src/verify/) over the memo and winning plan
  /// after every optimization, recording violations in
  /// SearchStats::verify_error. Like `governor`, deliberately excluded from
  /// HashOptimizerOptions: verification never changes which plan wins.
  bool verify_plans = kVerifyPlansDefault;
  /// Per-query resource governor (non-owning; null = ungoverned). Set by
  /// Session for each governed query. Deliberately excluded from
  /// HashOptimizerOptions: a governor never changes which plan wins, it
  /// only bounds how long the search may run before tripping.
  QueryGovernor* governor = nullptr;

  bool IsDisabled(const std::string& name) const {
    for (const std::string& d : disabled_rules) {
      if (d == name) return true;
    }
    return false;
  }
};

// Rule name constants (used with OptimizerOptions::disabled_rules).
inline constexpr const char* kRuleJoinCommute = "join-commutativity";
inline constexpr const char* kRuleJoinOrder = "join-order";
inline constexpr const char* kRuleMatToJoin = "mat-to-join";
inline constexpr const char* kRuleSelectMatCommute = "select-mat-commute";
inline constexpr const char* kRuleSelectUnnestCommute = "select-unnest-commute";
inline constexpr const char* kRuleSelectJoinPush = "select-join-pushdown";
inline constexpr const char* kImplFileScan = "file-scan";
inline constexpr const char* kImplIndexScan = "collapse-to-index-scan";
inline constexpr const char* kImplFilter = "filter";
inline constexpr const char* kImplHybridHashJoin = "hybrid-hash-join";
inline constexpr const char* kImplPointerJoin = "pointer-join";
inline constexpr const char* kImplAssembly = "assembly";
inline constexpr const char* kImplAlgProject = "alg-project";
inline constexpr const char* kImplAlgUnnest = "alg-unnest";
inline constexpr const char* kImplMergeJoin = "merge-join";
inline constexpr const char* kImplNestedLoops = "nested-loops";
inline constexpr const char* kEnforcerAssembly = "assembly-enforcer";
inline constexpr const char* kEnforcerSort = "sort-enforcer";

/// Shared state handed to rules.
struct OptContext {
  QueryContext* qctx = nullptr;
  Memo* memo = nullptr;
  const CostModel* cost_model = nullptr;
  const OptimizerOptions* opts = nullptr;
  SearchStats* stats = nullptr;
};

/// Counts one transformation output in `ctx.stats` and `ctx.opts`'s trace
/// sink: a duplicate when `inserted` is kInvalidMExpr (its root was already
/// in the memo), otherwise a new m-expr of group `g` fired by `rule`.
void CountRuleOutput(const OptContext& ctx, const char* rule, GroupId g,
                     MExprId inserted);

/// Calls `bind(child)` for each m-expr of kind `kind` in the (first) child
/// group of `mexpr`, in group order.
template <typename Bind>
void ChildMExprs(const OptContext& ctx, const LogicalMExpr& mexpr,
                 LogicalOpKind kind, Bind&& bind) {
  for (MExprId id : ctx.memo->group(mexpr.children[0]).mexprs) {
    const LogicalMExpr& child = ctx.memo->mexpr(id);
    if (child.op.kind == kind) bind(child);
  }
}

/// A logical-to-logical transformation rule.
class TransformationRule {
 public:
  virtual ~TransformationRule() = default;
  virtual const char* name() const = 0;
  /// Operator kind of the m-exprs this rule matches.
  virtual LogicalOpKind root_kind() const = 0;
  /// True if the rule also binds m-exprs of its child group (through
  /// ChildMExprs). Such rules are re-fired when the child group gains
  /// expressions.
  virtual bool matches_children() const { return false; }
  /// True if the rule applied to its own output gives back its input
  /// (commutativity): exploration never fires it on an m-expr it produced.
  virtual bool self_inverse() const { return false; }
  /// Appends substitute expressions for `mexpr` to `out`.
  virtual Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
                       std::vector<RuleExprPtr>* out) const = 0;
};

/// One physical alternative proposed by an implementation rule.
struct PhysInput {
  GroupId group = kInvalidGroup;
  PhysProps required;
};
struct PhysAlternative {
  PhysicalOp op;
  std::vector<PhysInput> inputs;
  /// Properties the algorithm delivers given inputs delivering theirs.
  PhysProps delivered;
  Cost local_cost;
};

/// A logical-to-physical implementation rule. May match multi-level
/// patterns by inspecting child groups (e.g. collapse-to-index-scan).
class ImplRule {
 public:
  virtual ~ImplRule() = default;
  virtual const char* name() const = 0;
  virtual LogicalOpKind root_kind() const = 0;
  /// Appends physical alternatives that implement `mexpr` and can deliver
  /// `required` (alternatives that cannot are filtered by the caller, so
  /// rules may emit optimistically).
  virtual Status Apply(OptContext& ctx, const LogicalMExpr& mexpr,
                       const PhysProps& required,
                       std::vector<PhysAlternative>* out) const = 0;
};

/// An enforcer alternative: a property-enforcing operator over the *same*
/// group optimized under weaker requirements.
struct EnforcerAlt {
  PhysicalOp op;
  PhysProps child_required;
  PhysProps delivered;
  Cost local_cost;
};

/// A physical property enforcer.
class Enforcer {
 public:
  virtual ~Enforcer() = default;
  virtual const char* name() const = 0;
  virtual Status Apply(OptContext& ctx, GroupId group,
                       const PhysProps& required,
                       std::vector<EnforcerAlt>* out) const = 0;
};

}  // namespace oodb

#endif  // OODB_VOLCANO_RULE_H_
