#include "src/algebra/logical_props.h"

#include <algorithm>

#include "src/cost/selectivity.h"
#include "src/trace/card_feedback.h"

namespace oodb {

Result<LogicalProps> DeriveLogicalProps(
    const LogicalOp& op, const std::vector<LogicalProps>& child_props,
    const QueryContext& ctx) {
  SelectivityEstimator sel(&ctx);
  std::vector<BindingSet> child_scopes;
  child_scopes.reserve(child_props.size());
  for (const LogicalProps& p : child_props) child_scopes.push_back(p.scope);

  LogicalProps out;
  out.scope = op.OutputBindings(child_scopes);

  switch (op.kind) {
    case LogicalOpKind::kGet: {
      OODB_ASSIGN_OR_RETURN(const CollectionInfo* info,
                            ctx.catalog->FindCollection(op.coll));
      out.card = static_cast<double>(info->cardinality);
      // An adaptive re-plan has the store's measured member count — exact,
      // where the catalog entry may predate arbitrary growth.
      if (ctx.feedback != nullptr) {
        if (std::optional<double> c = ctx.feedback->ScanCard(op.coll)) {
          out.card = *c;
        }
      }
      out.tuple_bytes = ctx.schema().type(info->id.type).object_size();
      return out;
    }
    case LogicalOpKind::kSelect:
      out.card = child_props[0].card * sel.Estimate(op.pred);
      out.tuple_bytes = child_props[0].tuple_bytes;
      return out;
    case LogicalOpKind::kProject: {
      out.card = child_props[0].card;
      double bytes = 0;
      for (const ScalarExprPtr& e : op.emit) {
        if (e->kind() == ScalarExpr::Kind::kAttr) {
          const BindingDef& b = ctx.bindings.def(e->binding());
          bytes += ctx.schema().type(b.type).field(e->field()).avg_size;
        } else {
          bytes += 8;
        }
      }
      out.tuple_bytes = std::max(8.0, bytes);
      return out;
    }
    case LogicalOpKind::kMat: {
      out.card = child_props[0].card;
      const BindingDef& target = ctx.bindings.def(op.target);
      out.tuple_bytes = child_props[0].tuple_bytes +
                        ctx.schema().type(target.type).object_size();
      return out;
    }
    case LogicalOpKind::kUnnest: {
      const BindingDef& src = ctx.bindings.def(op.source);
      const FieldDef& f = ctx.schema().type(src.type).field(op.field);
      double fanout = f.avg_set_card > 0 ? f.avg_set_card : 1.0;
      if (ctx.feedback != nullptr) {
        if (std::optional<double> measured =
                ctx.feedback->UnnestFanout(src.type, op.field)) {
          fanout = *measured;
        }
      }
      out.card = child_props[0].card * fanout;
      out.tuple_bytes = child_props[0].tuple_bytes + 8.0;
      return out;
    }
    case LogicalOpKind::kJoin: {
      out.card =
          child_props[0].card * child_props[1].card * sel.Estimate(op.pred);
      out.tuple_bytes = child_props[0].tuple_bytes + child_props[1].tuple_bytes;
      return out;
    }
  }
  return Status::Internal("unhandled logical operator in DeriveLogicalProps");
}

Result<LogicalProps> DeriveTreeProps(const LogicalExpr& expr,
                                     const QueryContext& ctx) {
  std::vector<LogicalProps> child_props;
  for (const LogicalExprPtr& c : expr.children) {
    OODB_ASSIGN_OR_RETURN(LogicalProps p, DeriveTreeProps(*c, ctx));
    child_props.push_back(p);
  }
  return DeriveLogicalProps(expr.op, child_props, ctx);
}

}  // namespace oodb
