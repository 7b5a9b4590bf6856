#include "src/rules/expr_rewrites.h"

#include <vector>

namespace oodb {

namespace {

ScalarExprPtr True() { return ScalarExpr::Const(Value::Int(1)); }
ScalarExprPtr False() { return ScalarExpr::Const(Value::Int(0)); }

bool IsConst(const ScalarExprPtr& e) {
  return e && e->kind() == ScalarExpr::Kind::kConst;
}

/// NOT over a comparison flips the operator.
CmpOp Negate(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
  }
  return op;
}

ScalarExprPtr Normalize(const ScalarExprPtr& e, bool negated);

/// Normalizes an AND/OR under optional negation, applying De Morgan,
/// flattening same-kind children, and folding constants.
ScalarExprPtr NormalizeConnective(const ScalarExpr& e, bool negated) {
  bool is_and = (e.kind() == ScalarExpr::Kind::kAnd) != negated;
  std::vector<ScalarExprPtr> parts;
  bool changed_kind_matters = false;
  (void)changed_kind_matters;
  for (const ScalarExprPtr& child : e.children()) {
    ScalarExprPtr c = Normalize(child, negated);
    if (IsConst(c)) {
      bool truth = c->value().i != 0;
      if (is_and && truth) continue;       // AND absorbs true
      if (!is_and && !truth) continue;     // OR absorbs false
      return is_and ? False() : True();    // zero element dominates
    }
    // Flatten same-kind nested connectives.
    if ((is_and && c->kind() == ScalarExpr::Kind::kAnd) ||
        (!is_and && c->kind() == ScalarExpr::Kind::kOr)) {
      for (const ScalarExprPtr& g : c->children()) parts.push_back(g);
    } else {
      parts.push_back(std::move(c));
    }
  }
  if (parts.empty()) return is_and ? True() : False();
  if (parts.size() == 1) return parts[0];
  return is_and ? ScalarExpr::And(std::move(parts))
                : ScalarExpr::Or(std::move(parts));
}

ScalarExprPtr Normalize(const ScalarExprPtr& e, bool negated) {
  switch (e->kind()) {
    case ScalarExpr::Kind::kConst: {
      bool truth = e->value().kind == Value::Kind::kInt ? e->value().i != 0
                                                        : true;
      return (truth != negated) ? True() : False();
    }
    case ScalarExpr::Kind::kAttr:
    case ScalarExpr::Kind::kSelf:
      // A bare attribute in boolean position: leave it; wrap negation.
      return negated ? ScalarExpr::Not(e) : e;
    case ScalarExpr::Kind::kNot:
      return Normalize(e->children()[0], !negated);
    case ScalarExpr::Kind::kAnd:
    case ScalarExpr::Kind::kOr:
      return NormalizeConnective(*e, negated);
    case ScalarExpr::Kind::kCmp: {
      ScalarExprPtr l = e->children()[0];
      ScalarExprPtr r = e->children()[1];
      CmpOp op = e->cmp_op();
      // Canonical operand order: const on the right.
      if (IsConst(l) && !IsConst(r)) {
        std::swap(l, r);
        op = ReverseCmp(op);
      }
      if (negated) op = Negate(op);
      // Constant folding.
      if (IsConst(l) && IsConst(r)) {
        bool truth;
        if (op == CmpOp::kEq) {
          truth = l->value() == r->value();
        } else if (op == CmpOp::kNe) {
          truth = !(l->value() == r->value());
        } else {
          truth = EvalCmp(op, l->value().Compare(r->value()));
        }
        return truth ? True() : False();
      }
      if (l == e->children()[0] && r == e->children()[1] &&
          op == e->cmp_op()) {
        return e;  // already normal
      }
      return ScalarExpr::Cmp(op, std::move(l), std::move(r));
    }
  }
  return e;
}

}  // namespace

ScalarExprPtr NormalizeExpr(const ScalarExprPtr& expr) {
  if (!expr) return expr;
  return Normalize(expr, /*negated=*/false);
}

}  // namespace oodb
