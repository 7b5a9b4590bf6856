#include "src/algebra/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "src/common/strings.h"

namespace oodb {

namespace {
size_t HashCombine(size_t a, size_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}
}  // namespace

bool Value::operator==(const Value& o) const {
  if (kind != o.kind) {
    // Allow int/double cross-comparison for equality.
    if ((kind == Kind::kInt && o.kind == Kind::kDouble) ||
        (kind == Kind::kDouble && o.kind == Kind::kInt)) {
      return Compare(o) == 0;
    }
    return false;
  }
  switch (kind) {
    case Kind::kNull:
      return true;
    case Kind::kInt:
      return i == o.i;
    case Kind::kDouble:
      return d == o.d;
    case Kind::kString:
      return s == o.s;
  }
  return false;
}

int Value::Compare(const Value& o) const {
  auto num = [](const Value& v) {
    return v.kind == Kind::kInt ? static_cast<double>(v.i) : v.d;
  };
  if (kind == Kind::kString && o.kind == Kind::kString) {
    return s.compare(o.s) < 0 ? -1 : (s == o.s ? 0 : 1);
  }
  double a = num(*this), b = num(o);
  return a < b ? -1 : (a == b ? 0 : 1);
}

std::string Value::ToString() const {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kDouble:
      return FormatDouble(d);
    case Kind::kString:
      return "\"" + s + "\"";
  }
  return "?";
}

std::string Value::KeyString() const {
  switch (kind) {
    case Kind::kNull:
      return "n";
    case Kind::kInt:
      return "i" + std::to_string(i);
    case Kind::kDouble: {
      // Integral doubles key like ints so 3 == 3.0 joins correctly.
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return "i" + std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "d%.17g", d);
      return buf;
    }
    case Kind::kString:
      return "s" + s;
  }
  return "?";
}

size_t Value::Hash() const {
  // operator== compares ints and doubles numerically, so equal numbers must
  // hash alike whatever their kind: a number exactly representable as both
  // (integral, magnitude below 2^53) hashes as an int, any other as a double.
  constexpr int64_t kExact = int64_t{1} << 53;
  switch (kind) {
    case Kind::kNull:
      return 0x77;
    case Kind::kInt:
      if (i > -kExact && i < kExact) return std::hash<int64_t>()(i);
      return std::hash<double>()(static_cast<double>(i));
    case Kind::kDouble:
      if (std::fabs(d) < static_cast<double>(kExact) && d == std::trunc(d)) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    case Kind::kString:
      return std::hash<std::string>()(s);
  }
  return 0;
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp ReverseCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kEq;
    case CmpOp::kNe:
      return CmpOp::kNe;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
  }
  return op;
}

bool EvalCmp(CmpOp op, int three_way) {
  switch (op) {
    case CmpOp::kEq:
      return three_way == 0;
    case CmpOp::kNe:
      return three_way != 0;
    case CmpOp::kLt:
      return three_way < 0;
    case CmpOp::kLe:
      return three_way <= 0;
    case CmpOp::kGt:
      return three_way > 0;
    case CmpOp::kGe:
      return three_way >= 0;
  }
  return false;
}

ScalarExprPtr ScalarExpr::Attr(BindingId binding, FieldId field) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kAttr;
  e->binding_ = binding;
  e->field_ = field;
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::Self(BindingId binding) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kSelf;
  e->binding_ = binding;
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::Const(Value v) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kConst;
  e->value_ = std::move(v);
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::Cmp(CmpOp op, ScalarExprPtr l, ScalarExprPtr r) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kCmp;
  e->cmp_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::And(std::vector<ScalarExprPtr> children) {
  if (children.size() == 1) return children[0];
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kAnd;
  e->children_ = std::move(children);
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::Or(std::vector<ScalarExprPtr> children) {
  if (children.size() == 1) return children[0];
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kOr;
  e->children_ = std::move(children);
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::Not(ScalarExprPtr child) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kNot;
  e->children_ = {std::move(child)};
  return Finish(std::move(e));
}

ScalarExprPtr ScalarExpr::AttrEqStr(BindingId b, FieldId f, std::string s) {
  return Cmp(CmpOp::kEq, Attr(b, f), Const(Value::Str(std::move(s))));
}

ScalarExprPtr ScalarExpr::AttrEqInt(BindingId b, FieldId f, int64_t v) {
  return Cmp(CmpOp::kEq, Attr(b, f), Const(Value::Int(v)));
}

ScalarExprPtr ScalarExpr::AttrCmpInt(BindingId b, FieldId f, CmpOp op,
                                     int64_t v) {
  return Cmp(op, Attr(b, f), Const(Value::Int(v)));
}

ScalarExprPtr ScalarExpr::RefEq(BindingId b1, FieldId f, BindingId b2) {
  return Cmp(CmpOp::kEq, Attr(b1, f), Self(b2));
}

BindingSet ScalarExpr::ReferencedBindings() const {
  BindingSet out;
  switch (kind_) {
    case Kind::kAttr:
    case Kind::kSelf:
      out.Add(binding_);
      break;
    case Kind::kConst:
      break;
    default:
      for (const ScalarExprPtr& c : children_) {
        out = out.Union(c->ReferencedBindings());
      }
  }
  return out;
}

bool ScalarExpr::Equals(const ScalarExpr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kAttr:
      return binding_ == other.binding_ && field_ == other.field_;
    case Kind::kSelf:
      return binding_ == other.binding_;
    case Kind::kConst:
      return value_ == other.value_;
    case Kind::kCmp:
      if (cmp_op_ != other.cmp_op_) return false;
      [[fallthrough]];
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      if (children_.size() != other.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i]->Equals(*other.children_[i])) return false;
      }
      return true;
  }
  return false;
}

ScalarExprPtr ScalarExpr::Finish(std::shared_ptr<ScalarExpr> e) {
  size_t h = static_cast<size_t>(e->kind_) * 0x9e3779b9;
  switch (e->kind_) {
    case Kind::kAttr:
      h = HashCombine(h, static_cast<size_t>(e->binding_) * 31 + e->field_);
      break;
    case Kind::kSelf:
      h = HashCombine(h, static_cast<size_t>(e->binding_));
      break;
    case Kind::kConst:
      h = HashCombine(h, e->value_.Hash());
      break;
    case Kind::kCmp:
      h = HashCombine(h, static_cast<size_t>(e->cmp_op_));
      [[fallthrough]];
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const ScalarExprPtr& c : e->children_) {
        h = HashCombine(h, c->Hash());
      }
      break;
  }
  e->hash_ = h;
  return e;
}

std::string ScalarExpr::ToString(const BindingTable& bindings,
                                 const Schema& schema) const {
  switch (kind_) {
    case Kind::kAttr: {
      const BindingDef& b = bindings.def(binding_);
      if (field_ == kInvalidField) return b.name;
      return b.name + "." + schema.type(b.type).field(field_).name;
    }
    case Kind::kSelf:
      return bindings.def(binding_).name + ".self";
    case Kind::kConst:
      return value_.ToString();
    case Kind::kCmp:
      return children_[0]->ToString(bindings, schema) + " " +
             CmpOpName(cmp_op_) + " " +
             children_[1]->ToString(bindings, schema);
    case Kind::kAnd: {
      std::vector<std::string> parts;
      for (const ScalarExprPtr& c : children_) {
        parts.push_back(c->ToString(bindings, schema));
      }
      return Join(parts, " and ");
    }
    case Kind::kOr: {
      std::vector<std::string> parts;
      for (const ScalarExprPtr& c : children_) {
        parts.push_back("(" + c->ToString(bindings, schema) + ")");
      }
      return Join(parts, " or ");
    }
    case Kind::kNot:
      return "not (" + children_[0]->ToString(bindings, schema) + ")";
  }
  return "?";
}

namespace {
void AppendConjuncts(const ScalarExprPtr& e, std::vector<ScalarExprPtr>* out) {
  if (e->kind() != ScalarExpr::Kind::kAnd) {
    out->push_back(e);
    return;
  }
  for (const ScalarExprPtr& c : e->children()) AppendConjuncts(c, out);
}
}  // namespace

std::vector<ScalarExprPtr> ScalarExpr::SplitConjuncts(const ScalarExprPtr& e) {
  std::vector<ScalarExprPtr> out;
  if (e) AppendConjuncts(e, &out);
  return out;
}

ScalarExprPtr ScalarExpr::CombineConjuncts(
    std::vector<ScalarExprPtr> conjuncts) {
  return And(std::move(conjuncts));
}

size_t HashExprPtr(const ScalarExprPtr& e) { return e ? e->Hash() : 0x5f; }

ScalarExprPtr CanonicalConjunction(std::vector<ScalarExprPtr> conjuncts) {
  // Constant true is the predicate simplification gives cartesian FROM
  // combinations.
  std::vector<ScalarExprPtr> kept;
  for (ScalarExprPtr& c : conjuncts) {
    auto same = [&c](const ScalarExprPtr& k) { return ExprPtrEquals(k, c); };
    if (!IsConstTrue(c) && std::none_of(kept.begin(), kept.end(), same)) {
      kept.push_back(std::move(c));
    }
  }
  if (kept.empty()) kept.push_back(ScalarExpr::Const(Value::Int(1)));
  std::sort(kept.begin(), kept.end(),
            [](const ScalarExprPtr& a, const ScalarExprPtr& b) {
              return a->Hash() < b->Hash();
            });
  return ScalarExpr::CombineConjuncts(std::move(kept));
}

bool IsConstTrue(const ScalarExprPtr& expr) {
  return expr && expr->kind() == ScalarExpr::Kind::kConst &&
         expr->value().kind == Value::Kind::kInt && expr->value().i != 0;
}

bool IsConstFalse(const ScalarExprPtr& expr) {
  return expr && expr->kind() == ScalarExpr::Kind::kConst &&
         expr->value().kind == Value::Kind::kInt && expr->value().i == 0;
}

bool ExprPtrEquals(const ScalarExprPtr& a, const ScalarExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return a->Equals(*b);
}

}  // namespace oodb
