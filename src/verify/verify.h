// Static verifier over the optimizer's three IRs (LLVM/MLIR-style): logical
// expression trees (binding scoping + type discipline), the memo (group
// consistency, liveness, winner sanity), and physical plans (delivered
// properties actually justified by the operators below, enforcer placement,
// Exchange legality, cost bookkeeping). Nothing is executed; every check is
// a structural walk. Violations carry an operator path and a stable
// invariant id so tests can assert *which* rule a corruption broke.
#ifndef OODB_VERIFY_VERIFY_H_
#define OODB_VERIFY_VERIFY_H_

#include <string>
#include <vector>

#include "src/volcano/memo.h"

namespace oodb {

// Stable invariant identifiers. Diagnostic messages embed these in square
// brackets; the mutation self-tests (tests/verify_mutation_test.cc) assert
// them. Grouped by the IR the check walks.
namespace invariant {
// --- logical exprs (also reused for predicates/emit lists inside plans) ---
inline constexpr const char* kExprScope = "expr-out-of-scope";
inline constexpr const char* kExprBinding = "expr-unknown-binding";
inline constexpr const char* kExprField = "expr-unknown-field";
inline constexpr const char* kExprSetField = "expr-set-valued-field";
inline constexpr const char* kExprCmpType = "expr-cmp-type-mismatch";
inline constexpr const char* kExprBoolOperand = "expr-non-bool-operand";
inline constexpr const char* kExprPredBool = "expr-pred-not-bool";
inline constexpr const char* kExprShape = "expr-malformed";
inline constexpr const char* kLogicalOp = "logical-op-invalid";
// --- memo ---
inline constexpr const char* kMemoDanglingGroup = "memo-dangling-group";
inline constexpr const char* kMemoEmptyGroup = "memo-empty-group";
inline constexpr const char* kMemoMembership = "memo-group-membership";
inline constexpr const char* kMemoArity = "memo-arity";
inline constexpr const char* kMemoScopeDrift = "memo-scope-drift";
/// Every m-expr re-derives its group's cardinality: the estimate depends on
/// the logical expression, never on which derivation created the group.
inline constexpr const char* kMemoCardDrift = "memo-card-drift";
inline constexpr const char* kMemoCard = "memo-card-invalid";
inline constexpr const char* kMemoOpInvalid = "memo-op-invalid";
/// A Select over a Select-only group, or a non-canonical Select predicate.
inline constexpr const char* kMemoSelectCanonical = "select-canonical";
inline constexpr const char* kMemoWinnerInProgress = "memo-winner-in-progress";
inline constexpr const char* kMemoWinnerProps = "memo-winner-props-unsatisfied";
inline constexpr const char* kMemoWinnerCost = "memo-winner-cost";
// --- physical plans ---
inline constexpr const char* kPlanArity = "plan-arity";
inline constexpr const char* kPlanOpField = "plan-op-missing-field";
inline constexpr const char* kPlanScope = "plan-scope-composition";
inline constexpr const char* kPlanCostFinite = "plan-cost-not-finite";
inline constexpr const char* kPlanCostNegative = "plan-cost-negative";
inline constexpr const char* kPlanCostTotal = "plan-cost-total-mismatch";
inline constexpr const char* kPlanMemory = "plan-in-memory-not-delivered";
inline constexpr const char* kPlanMemoryScope = "plan-in-memory-not-loadable";
inline constexpr const char* kPlanLoad = "plan-load-requirement-unmet";
inline constexpr const char* kPlanSort = "plan-sort-not-established";
inline constexpr const char* kPlanMatStep = "plan-mat-step-derivation";
inline constexpr const char* kPlanMatSource = "plan-mat-source-unavailable";
inline constexpr const char* kPlanUnnest = "plan-unnest-derivation";
inline constexpr const char* kPlanScan = "plan-scan-invalid";
inline constexpr const char* kPlanIndex = "plan-index-mismatch";
inline constexpr const char* kPlanJoinOverlap = "plan-join-scope-overlap";
inline constexpr const char* kPlanHashJoinPred = "plan-hash-join-pred-shape";
inline constexpr const char* kPlanHashJoinOrientation =
    "plan-hash-join-orientation";
inline constexpr const char* kPlanExchange = "plan-exchange-illegal";
inline constexpr const char* kPlanFusion = "plan-fusion-conjunct-drift";
/// Row-limit discipline: a delivered limit must be produced by a TopK (or
/// merging Exchange) below and relayed only through 1:1 operators.
inline constexpr const char* kPlanTopK = "plan-limit-not-established";
}  // namespace invariant

/// One violated invariant: where (operator path from the root, e.g.
/// "AlgProject/Filter/0:HybridHashJoin"), which rule, and why.
struct VerifyViolation {
  std::string invariant;  ///< stable id from namespace invariant
  std::string path;       ///< operator path from the verified root
  std::string detail;     ///< human-readable specifics

  /// "[invariant] at path: detail".
  std::string ToString() const;
};

/// Accumulated violations of one verification walk.
class VerifyReport {
 public:
  bool ok() const { return violations_.empty(); }
  const std::vector<VerifyViolation>& violations() const { return violations_; }

  void Add(const char* invariant_id, std::string path, std::string detail);
  /// True when some violation carries `invariant_id` (test helper).
  bool Has(const char* invariant_id) const;

  /// kPlanError carrying the first violation (and a count of the rest);
  /// OK when the report is clean.
  Status ToStatus() const;
  /// All violations, one per line.
  std::string ToString() const;

 private:
  std::vector<VerifyViolation> violations_;
};

/// Verifier knobs. Defaults suit the automatic post-optimization run.
struct VerifyOptions {
  /// Check cost bookkeeping (finite, non-negative local costs, total ==
  /// local + sum of child totals).
  bool check_costs = true;
  /// Relative tolerance for the total-cost recomputation (Exchange's
  /// speedup subtraction makes exact float equality unattainable).
  double cost_rel_tolerance = 1e-6;
  /// Stop collecting after this many violations (a corrupt IR tends to
  /// cascade; the first few diagnoses are the actionable ones).
  int max_violations = 32;
};

// --- Logical expression trees -------------------------------------------
// Binding scoping (every attribute/self reference resolves to an in-scope
// binding), Mat/Unnest catalog type discipline (via LogicalOp::Validate),
// and predicate/emit operand type agreement.
VerifyReport VerifyExprReport(const LogicalExpr& expr, const QueryContext& ctx);
Status VerifyExpr(const LogicalExpr& expr, const QueryContext& ctx);

// --- The memo ------------------------------------------------------------
// Group internal consistency (membership, arity, shared logical properties),
// no dangling group references, finite winner costs, winner plans satisfying
// their required-property keys.
VerifyReport VerifyMemoReport(const Memo& memo, const VerifyOptions& opts = {});
Status VerifyMemo(const Memo& memo, const VerifyOptions& opts = {});

// --- Physical plans ------------------------------------------------------
// Bottom-up proof that each node's delivered properties are justified:
// claimed in-memory bindings actually loaded below (scans, assembly steps,
// pointer joins), claimed sort orders established (Sort/IndexScan/MergeJoin)
// or passed through order-preserving operators, assembly/unnest steps
// consistent with the binding table's derivations, Exchange placement legal
// per the parallel.cc planting rules, and cost totals additive.
VerifyReport VerifyPlanReport(const PlanNode& plan, const QueryContext& ctx,
                              const VerifyOptions& opts = {});
Status VerifyPlan(const PlanNode& plan, const QueryContext& ctx,
                  const VerifyOptions& opts = {});

/// Scalar type lattice used by the expression checks. kUnknown poisons
/// nothing: checks are lenient where a prior violation already fired.
enum class ScalarType { kBool, kInt, kDouble, kString, kRef, kUnknown };
const char* ScalarTypeName(ScalarType t);

/// Checks one scalar expression against `scope`: every read in scope, field
/// accesses valid and scalar-kinded, comparison/boolean operand types agree.
/// Appends violations under `path`; returns the expression's type. Shared by
/// the expr and plan verifiers (and usable directly in tests).
ScalarType CheckScalarExpr(const ScalarExpr& expr, BindingSet scope,
                           const QueryContext& ctx, const std::string& path,
                           VerifyReport* report);

/// True for an integer constant expression: the planner's truthy-predicate
/// idiom (cross joins carry a constant `1`), accepted in boolean position.
bool IsTruthyConstant(const ScalarExpr& expr);

/// Exec-level filter-fusion check: the fused predicate must carry exactly
/// the conjuncts of the collapsed Filter chain (order-insensitive multiset
/// comparison). Used by the batch executor's filter-chain merge.
Status VerifyFusedConjuncts(const std::vector<ScalarExprPtr>& chain_preds,
                            const ScalarExprPtr& fused);

}  // namespace oodb

#endif  // OODB_VERIFY_VERIFY_H_
