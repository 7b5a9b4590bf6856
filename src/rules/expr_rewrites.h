// Logical *argument* transformations (paper Lesson 9: "we found it
// sometimes necessary to transform logical operator arguments in a way that
// is similar to the algebraic operator transformations. These logical
// argument transformations may be subject to rules completely different
// than the algebraic operator transformations").
//
// This module is that separate rule group: a normalizing rewriter for
// predicate expressions, applied by simplification before the algebraic
// optimizer ever sees the query:
//
//   * constant folding: comparisons/connectives over literals evaluate away,
//   * identity elimination: AND/OR absorb their units and zeros,
//   * negation normal form: NOT pushed through connectives (De Morgan) and
//     into comparisons (flipping the operator),
//   * flattening: nested ANDs/ORs merge into their parent,
//   * canonical operand order: constant-vs-attribute comparisons are turned
//     to attr-op-const form.
#ifndef OODB_RULES_EXPR_REWRITES_H_
#define OODB_RULES_EXPR_REWRITES_H_

#include "src/algebra/expr.h"

namespace oodb {

/// Rewrites `expr` to normal form. Idempotent; never fails (unknown shapes
/// pass through unchanged). Null stays null.
ScalarExprPtr NormalizeExpr(const ScalarExprPtr& expr);

}  // namespace oodb

#endif  // OODB_RULES_EXPR_REWRITES_H_
