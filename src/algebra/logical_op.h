// The Open OODB logical algebra (paper §3): Get, Select, Project, Join,
// Unnest and the novel Mat (materialize) operator. Operator arguments are
// deliberately *simple* — all path traversal is explicit in Mat/Unnest
// operators.
#ifndef OODB_ALGEBRA_LOGICAL_OP_H_
#define OODB_ALGEBRA_LOGICAL_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/algebra/binding.h"
#include "src/algebra/expr.h"
#include "src/catalog/catalog.h"

namespace oodb {

class CardFeedback;

/// Per-query state shared by every algebra expression of the query: the
/// catalog it is compiled against and the binding table.
struct QueryContext {
  const Catalog* catalog = nullptr;
  BindingTable bindings;
  /// Measured cardinality feedback from a prior (possibly drift-aborted)
  /// execution of this query (see trace/card_feedback.h). Null in ordinary
  /// optimization; set by the session's adaptive re-plan path, where
  /// DeriveLogicalProps and SelectivityEstimator prefer observed values
  /// over catalog statistics. Plans costed with feedback are query-local:
  /// the session never admits them to the plan cache.
  const CardFeedback* feedback = nullptr;

  const Schema& schema() const { return catalog->schema(); }
};

enum class LogicalOpKind {
  kGet,        ///< scan a collection, binding its elements
  kSelect,     ///< filter by a predicate over in-scope bindings
  kProject,    ///< emit output expressions, discarding scope
  kMat,        ///< materialize: bring a referenced component into scope
  kUnnest,     ///< reveal the references in a set-valued field
  kJoin,       ///< join two scopes on a predicate
};

const char* LogicalOpKindName(LogicalOpKind kind);

/// Logical operators are at most binary (Join).
inline constexpr int kMaxLogicalArity = 2;

/// One logical operator (without children — trees and memo m-exprs attach
/// children separately). Value-semantic, hashable, comparable.
struct LogicalOp {
  LogicalOpKind kind = LogicalOpKind::kGet;

  // kGet
  CollectionId coll;
  BindingId binding = kInvalidBinding;

  // kSelect / kJoin
  ScalarExprPtr pred;

  // kProject
  std::vector<ScalarExprPtr> emit;

  // kMat / kUnnest: traverse `source`.`field` producing `target`. A Mat that
  // resolves a bare-reference binding (from Unnest) has field == kInvalidField.
  BindingId source = kInvalidBinding;
  FieldId field = kInvalidField;
  BindingId target = kInvalidBinding;

  static LogicalOp Get(CollectionId coll, BindingId binding);
  /// A Select's predicate is always the CanonicalConjunction of its
  /// conjuncts: one Select per conjunct set, whatever order built it.
  static LogicalOp Select(ScalarExprPtr pred);
  static LogicalOp Project(std::vector<ScalarExprPtr> emit);
  static LogicalOp Mat(BindingId source, FieldId field, BindingId target);
  /// Mat resolving a bare reference binding.
  static LogicalOp MatRef(BindingId ref_binding, BindingId target);
  static LogicalOp Unnest(BindingId source, FieldId set_field, BindingId target);
  static LogicalOp Join(ScalarExprPtr pred);

  /// Number of children this operator takes (at most kMaxLogicalArity).
  int Arity() const;

  bool operator==(const LogicalOp& o) const;
  size_t Hash() const;

  /// One-line rendering, e.g. "Mat e.dept" / "Get Employees: e".
  std::string ToString(const QueryContext& ctx) const;

  /// Scope this operator produces given its children's scopes.
  BindingSet OutputBindings(const std::vector<BindingSet>& child_scopes) const;

  /// Checks operator validity against child scopes: predicate references in
  /// scope, Mat source in scope & target fresh, join scopes disjoint, etc.
  Status Validate(const QueryContext& ctx,
                  const std::vector<BindingSet>& child_scopes) const;
};

struct LogicalExpr;
using LogicalExprPtr = std::shared_ptr<const LogicalExpr>;

/// A standalone logical expression tree — the optimizer's *input* (produced
/// by simplification) and the shape transformation-rule results take before
/// memo insertion.
struct LogicalExpr {
  LogicalOp op;
  std::vector<LogicalExprPtr> children;

  static LogicalExprPtr Make(LogicalOp op,
                             std::vector<LogicalExprPtr> children = {});

  /// Scope of this subtree.
  BindingSet Scope() const;
};

/// Validates an entire tree bottom-up; returns the root scope.
Result<BindingSet> ValidateLogicalTree(const LogicalExpr& expr,
                                       const QueryContext& ctx);

/// Renders the tree in the paper's figure style (one operator per line,
/// children indented below).
std::string PrintLogicalTree(const LogicalExpr& expr, const QueryContext& ctx);

}  // namespace oodb

#endif  // OODB_ALGEBRA_LOGICAL_OP_H_
