#include "src/cost/selectivity.h"

#include <algorithm>
#include <vector>

#include "src/algebra/expr.h"
#include "src/algebra/logical_props.h"
#include "src/trace/card_feedback.h"

namespace oodb {

namespace {

/// The `self` side of a `ref == self` (or `self == self`) equality, or null.
const ScalarExpr* SelfOperand(const ScalarExprPtr& e) {
  if (e->kind() != ScalarExpr::Kind::kCmp || e->cmp_op() != CmpOp::kEq) {
    return nullptr;
  }
  const ScalarExpr* self = nullptr;
  for (const ScalarExprPtr& side : e->children()) {
    if (side->kind() == ScalarExpr::Kind::kSelf) self = side.get();
  }
  return self;
}

}  // namespace

bool SelectivityEstimator::IsExact(const ScalarExprPtr& conjunct) {
  return IsConstTrue(conjunct) || IsConstFalse(conjunct) ||
         SelfOperand(conjunct) != nullptr;
}

double SelectivityEstimator::Estimate(const ScalarExprPtr& pred) const {
  if (!pred) return 1.0;
  switch (pred->kind()) {
    case ScalarExpr::Kind::kAnd: {
      double s = 1.0;
      for (const ScalarExprPtr& c : pred->children()) s *= Estimate(c);
      return s;
    }
    case ScalarExpr::Kind::kOr: {
      double keep = 1.0;
      for (const ScalarExprPtr& c : pred->children()) keep *= 1.0 - Estimate(c);
      return 1.0 - keep;
    }
    case ScalarExpr::Kind::kNot:
      return 1.0 - Estimate(pred->children()[0]);
    default:
      return EstimateConjunct(pred);
  }
}

double SelectivityEstimator::EstimateConjunct(const ScalarExprPtr& e) const {
  // A constant is exact: the constant-true predicate of a cartesian FROM
  // keeps the whole cross product.
  if (IsConstTrue(e)) return 1.0;
  if (IsConstFalse(e)) return 0.0;
  if (const ScalarExpr* self = SelfOperand(e)) {
    // ref == self: each referencing tuple matches exactly one object of the
    // referenced population. That is the extent Get mat-to-join scans, so
    // Join(X, extent) re-derives exactly the cardinality of the Mat(X) it
    // replaces.
    TypeId t = ctx_->bindings.def(self->binding()).type;
    Result<LogicalProps> extent = DeriveLogicalProps(
        LogicalOp::Get(CollectionId::Extent(t), self->binding()), {}, *ctx_);
    return extent.ok() ? 1.0 / std::max(1.0, extent->card)
                       : kDefaultSelectivity;
  }
  // Measured feedback from a prior execution of this query wins over any
  // statistic: the structural hash includes literal values, so an observed
  // selectivity for `x == 7` is consulted only for that exact conjunct —
  // which is precisely what statistics-free skew detection needs.
  if (ctx_->feedback != nullptr) {
    if (std::optional<double> sel = ctx_->feedback->Selectivity(e->Hash())) {
      return *sel;
    }
  }
  if (e->kind() != ScalarExpr::Kind::kCmp) return kDefaultSelectivity;
  const ScalarExprPtr& l = e->children()[0];
  const ScalarExprPtr& r = e->children()[1];
  // Normalize to attr-vs-const if possible.
  const ScalarExpr* attr = nullptr;
  if (l->kind() == ScalarExpr::Kind::kAttr &&
      r->kind() == ScalarExpr::Kind::kConst) {
    attr = l.get();
  } else if (r->kind() == ScalarExpr::Kind::kAttr &&
             l->kind() == ScalarExpr::Kind::kConst) {
    attr = r.get();
  }
  switch (e->cmp_op()) {
    case CmpOp::kEq: {
      // Value equality between two attributes: 1 / max(distinct), with an
      // unmeasured side counted as 10 distinct values.
      if (l->kind() == ScalarExpr::Kind::kAttr &&
          r->kind() == ScalarExpr::Kind::kAttr) {
        auto distinct = [&](const ScalarExpr* a) -> double {
          const BindingDef& b = ctx_->bindings.def(a->binding());
          const FieldDef& f = ctx_->schema().type(b.type).field(a->field());
          return f.distinct_values > 0 ? static_cast<double>(f.distinct_values)
                                       : 10.0;
        };
        return 1.0 / std::max(distinct(l.get()), distinct(r.get()));
      }
      if (attr != nullptr) {
        const IndexInfo* idx = FindAssistingIndex(attr->binding(), attr->field());
        if (idx != nullptr && idx->distinct_keys > 0) {
          return 1.0 / static_cast<double>(idx->distinct_keys);
        }
        // No assisting index, but ANALYZE may have measured the field's key
        // population: 1/distinct is the textbook equality estimate. The
        // blanket 10% default over-estimated high-cardinality equality
        // predicates by orders of magnitude (EXPLAIN ANALYZE showed 16x
        // drift on OO7's `a.x == c` — x has 1000 distinct values). Gated on
        // measurement: declared-only catalogs keep the paper's §4 default,
        // preserving the published Figure 6 / Table 2 plan shapes.
        if (ctx_->catalog->stats_measured() && attr->field() != kInvalidField) {
          const BindingDef& b = ctx_->bindings.def(attr->binding());
          const FieldDef& f = ctx_->schema().type(b.type).field(attr->field());
          if (f.distinct_values > 0) {
            return 1.0 / static_cast<double>(f.distinct_values);
          }
        }
      }
      return kDefaultSelectivity;
    }
    case CmpOp::kNe:
      return 1.0 - kDefaultSelectivity;
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe: {
      // Interpolate within the field's [min, max] statistics if the catalog
      // has them (uniform-distribution assumption); else the naive third.
      if (attr == nullptr) return kDefaultRangeSelectivity;
      const ScalarExpr* lit = attr == l.get() ? r.get() : l.get();
      if (lit->value().kind != Value::Kind::kInt) {
        return kDefaultRangeSelectivity;
      }
      const BindingDef& b = ctx_->bindings.def(attr->binding());
      const FieldDef& f = ctx_->schema().type(b.type).field(attr->field());
      if (!f.has_range_stats()) return kDefaultRangeSelectivity;
      // Normalize to attr-op-literal orientation.
      CmpOp op = e->cmp_op();
      if (attr == r.get()) op = ReverseCmp(op);
      double v = static_cast<double>(lit->value().i);
      double lo = static_cast<double>(f.min_value);
      double hi = static_cast<double>(f.max_value);
      double below = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
      double sel = (op == CmpOp::kLt || op == CmpOp::kLe) ? below : 1.0 - below;
      return std::clamp(sel, 0.001, 1.0);
    }
  }
  return kDefaultSelectivity;
}

const IndexInfo* SelectivityEstimator::FindAssistingIndex(BindingId binding,
                                                          FieldId field) const {
  if (field == kInvalidField) return nullptr;
  // Reconstruct the reference path from the binding's derivation chain back
  // to a scanned (Get) binding: b = root.f1.f2...; key field appended.
  std::vector<FieldId> chain = {field};
  BindingId cur = binding;
  const BindingTable& bt = ctx_->bindings;
  bool extent_only = false;
  while (bt.def(cur).origin == BindingOrigin::kMat) {
    const BindingDef& d = bt.def(cur);
    if (d.via_field == kInvalidField) {
      // Materialized from a bare reference (unnest output): the binding
      // ranges over the type's whole population, so only an index on the
      // type's extent can assist.
      extent_only = true;
      break;
    }
    chain.push_back(d.via_field);
    cur = d.parent;
  }
  if (!extent_only && bt.def(cur).origin != BindingOrigin::kGet) return nullptr;
  std::reverse(chain.begin(), chain.end());
  TypeId root_type = bt.def(cur).type;
  for (const IndexInfo& idx : ctx_->catalog->indexes()) {
    if (!idx.enabled) continue;
    if (idx.collection.type != root_type) continue;
    if (extent_only && idx.collection.kind != CollectionId::Kind::kExtent) {
      continue;
    }
    if (idx.path == chain) return &idx;
  }
  return nullptr;
}

}  // namespace oodb
