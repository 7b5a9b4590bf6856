// Scalar (predicate/projection) expressions with *simple* arguments — the
// paper's central algebra-design decision (§2, Lesson 4): after
// simplification, expressions only touch direct fields of in-scope bindings
// (record-field access); every multi-hop dereference has been made explicit
// as a Mat operator. Expression trees are immutable and shared.
#ifndef OODB_ALGEBRA_EXPR_H_
#define OODB_ALGEBRA_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/binding.h"
#include "src/catalog/schema.h"

namespace oodb {

/// A runtime constant.
struct Value {
  enum class Kind { kNull, kInt, kDouble, kString };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double d = 0.0;
  std::string s;

  static Value Null() { return Value{}; }
  static Value Int(int64_t v) {
    Value out;
    out.kind = Kind::kInt;
    out.i = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.kind = Kind::kDouble;
    out.d = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out;
    out.kind = Kind::kString;
    out.s = std::move(v);
    return out;
  }

  bool operator==(const Value& o) const;
  /// Three-way comparison for ordering; kinds must match (int/double mix ok).
  int Compare(const Value& o) const;
  std::string ToString() const;
  /// Exact encoding of one value (ToString rounds doubles for display; this
  /// must not). Ints and doubles encode alike when numerically equal, as
  /// operator== compares them, but every NaN encodes alike though NaN is
  /// unequal to itself, and a concatenation of encodings is ambiguous (a
  /// string may contain any separator), so equal encodings do not imply
  /// equal values. Joins match with operator==.
  std::string KeyString() const;
  size_t Hash() const;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
const char* CmpOpName(CmpOp op);
/// kLt -> kGt etc., for operand swaps.
CmpOp ReverseCmp(CmpOp op);
/// Evaluates `a op b` given a three-way comparison result of a vs b.
bool EvalCmp(CmpOp op, int three_way);

class ScalarExpr;
using ScalarExprPtr = std::shared_ptr<const ScalarExpr>;

/// Immutable scalar expression node.
class ScalarExpr {
 public:
  enum class Kind {
    kAttr,   ///< field of an in-scope binding: b.f (scalar or single ref)
    kSelf,   ///< object identity (OID) of a binding
    kConst,  ///< literal
    kCmp,    ///< comparison of two children
    kAnd,    ///< conjunction (n-ary)
    kOr,     ///< disjunction (n-ary)
    kNot,    ///< negation
  };

  static ScalarExprPtr Attr(BindingId binding, FieldId field);
  static ScalarExprPtr Self(BindingId binding);
  static ScalarExprPtr Const(Value v);
  static ScalarExprPtr Cmp(CmpOp op, ScalarExprPtr l, ScalarExprPtr r);
  static ScalarExprPtr And(std::vector<ScalarExprPtr> children);
  static ScalarExprPtr Or(std::vector<ScalarExprPtr> children);
  static ScalarExprPtr Not(ScalarExprPtr child);

  /// Convenience: b.f == "s" / b.f == i / b.f cmp value.
  static ScalarExprPtr AttrEqStr(BindingId b, FieldId f, std::string s);
  static ScalarExprPtr AttrEqInt(BindingId b, FieldId f, int64_t v);
  static ScalarExprPtr AttrCmpInt(BindingId b, FieldId f, CmpOp op, int64_t v);
  /// b1.f == b2 (reference equality against an object's identity).
  static ScalarExprPtr RefEq(BindingId b1, FieldId f, BindingId b2);

  Kind kind() const { return kind_; }
  BindingId binding() const { return binding_; }
  FieldId field() const { return field_; }
  const Value& value() const { return value_; }
  CmpOp cmp_op() const { return cmp_op_; }
  const std::vector<ScalarExprPtr>& children() const { return children_; }

  /// All bindings this expression reads.
  BindingSet ReferencedBindings() const;

  /// Structural equality / hashing (for memo dedup of Select/Join args).
  /// The hash is computed once, when the node is built.
  bool Equals(const ScalarExpr& other) const;
  size_t Hash() const { return hash_; }

  /// Pretty-prints using binding names and field names.
  std::string ToString(const BindingTable& bindings, const Schema& schema) const;

  /// Splits a conjunctive expression into its conjuncts (flattens nested
  /// kAnd); a non-kAnd expression yields itself.
  static std::vector<ScalarExprPtr> SplitConjuncts(const ScalarExprPtr& e);

  /// Conjunction of `conjuncts` (returns single element unwrapped; must be
  /// non-empty).
  static ScalarExprPtr CombineConjuncts(std::vector<ScalarExprPtr> conjuncts);

 private:
  ScalarExpr() = default;
  /// Sets `e`'s hash from its fields and its children's hashes; every
  /// factory returns through it.
  static ScalarExprPtr Finish(std::shared_ptr<ScalarExpr> e);

  Kind kind_ = Kind::kConst;
  BindingId binding_ = kInvalidBinding;
  FieldId field_ = kInvalidField;
  Value value_;
  CmpOp cmp_op_ = CmpOp::kEq;
  std::vector<ScalarExprPtr> children_;
  size_t hash_ = 0;
};

/// Hash/equality helpers for ScalarExprPtr (null-safe).
size_t HashExprPtr(const ScalarExprPtr& e);
bool ExprPtrEquals(const ScalarExprPtr& a, const ScalarExprPtr& b);

/// True if the expression is the literal constant true/false.
bool IsConstTrue(const ScalarExprPtr& expr);
bool IsConstFalse(const ScalarExprPtr& expr);

/// Canonical conjunction: the distinct conjuncts of `conjuncts` sorted by
/// hash, so equivalent predicates hash identically in the memo. Constant-true
/// conjuncts are dropped while a real one is present.
ScalarExprPtr CanonicalConjunction(std::vector<ScalarExprPtr> conjuncts);

}  // namespace oodb

#endif  // OODB_ALGEBRA_EXPR_H_
