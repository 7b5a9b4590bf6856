#include "src/exec/reference.h"

#include <utility>

namespace oodb {

namespace {

class ReferenceEvaluator {
 public:
  ReferenceEvaluator(ObjectStore* store, const QueryContext& ctx)
      : store_(store), ctx_(ctx) {}

  Result<std::vector<Tuple>> Eval(const LogicalExpr& expr) {
    switch (expr.op.kind) {
      case LogicalOpKind::kGet:
        return EvalGet(expr.op);
      case LogicalOpKind::kSelect: {
        OODB_ASSIGN_OR_RETURN(std::vector<Tuple> in, Eval(*expr.children[0]));
        std::vector<Tuple> out;
        for (Tuple& t : in) {
          OODB_ASSIGN_OR_RETURN(bool pass, EvalPredicate(expr.op.pred, t, ctx_));
          if (pass) out.push_back(std::move(t));
        }
        return out;
      }
      case LogicalOpKind::kProject:
        // Scope narrowing happens at row extraction; tuples pass through.
        return Eval(*expr.children[0]);
      case LogicalOpKind::kMat: {
        OODB_ASSIGN_OR_RETURN(std::vector<Tuple> in, Eval(*expr.children[0]));
        std::vector<Tuple> out;
        for (Tuple& t : in) {
          Oid target;
          if (expr.op.field == kInvalidField) {
            target = t.slot(expr.op.source).ref;
          } else {
            const Slot& src = t.slot(expr.op.source);
            if (!src.loaded()) {
              return Status::Internal("reference eval: source not loaded");
            }
            target = src.obj->ref(expr.op.field);
          }
          // A dangling reference drops the tuple (Mat == Join semantics).
          if (target == kInvalidOid || !store_->Exists(target)) continue;
          OODB_ASSIGN_OR_RETURN(const ObjectData* obj,
                                store_->Read(target, /*stream=*/nullptr));
          t.slot(expr.op.target) = {target, obj};
          out.push_back(std::move(t));
        }
        return out;
      }
      case LogicalOpKind::kUnnest: {
        OODB_ASSIGN_OR_RETURN(std::vector<Tuple> in, Eval(*expr.children[0]));
        std::vector<Tuple> out;
        for (const Tuple& t : in) {
          const Slot& src = t.slot(expr.op.source);
          if (!src.loaded()) {
            return Status::Internal("reference eval: unnest source not loaded");
          }
          const TypeDef& td = ctx_.schema().type(src.obj->type);
          int slot = 0;
          for (FieldId f = 0; f < expr.op.field; ++f) {
            if (td.field(f).kind == FieldKind::kRefSet) ++slot;
          }
          for (Oid member : src.obj->ref_sets[slot]) {
            Tuple copy = t;
            copy.slot(expr.op.target) = {member, nullptr};
            out.push_back(std::move(copy));
          }
        }
        return out;
      }
      case LogicalOpKind::kJoin: {
        OODB_ASSIGN_OR_RETURN(std::vector<Tuple> left, Eval(*expr.children[0]));
        OODB_ASSIGN_OR_RETURN(std::vector<Tuple> right, Eval(*expr.children[1]));
        std::vector<Tuple> out;
        for (const Tuple& l : left) {
          for (const Tuple& r : right) {
            Tuple merged = l;
            merged.MergeFrom(r);
            OODB_ASSIGN_OR_RETURN(bool pass,
                                  EvalPredicate(expr.op.pred, merged, ctx_));
            if (pass) out.push_back(std::move(merged));
          }
        }
        return out;
      }
    }
    return Status::Internal("unhandled operator in reference evaluator");
  }

 private:
  Result<std::vector<Tuple>> EvalGet(const LogicalOp& op) {
    OODB_ASSIGN_OR_RETURN(const std::vector<Oid>* members,
                          store_->CollectionMembers(op.coll));
    std::vector<Tuple> out;
    out.reserve(members->size());
    for (Oid oid : *members) {
      Tuple t(ctx_.bindings.size());
      OODB_ASSIGN_OR_RETURN(const ObjectData* obj,
                            store_->Read(oid, /*stream=*/nullptr));
      t.slot(op.binding) = {oid, obj};
      out.push_back(std::move(t));
    }
    return out;
  }

  ObjectStore* store_;
  const QueryContext& ctx_;
};

}  // namespace

Result<ReferenceResult> EvaluateReference(const LogicalExpr& expr,
                                          ObjectStore* store,
                                          const QueryContext& ctx) {
  ReferenceEvaluator eval(store, ctx);
  ReferenceResult out;
  OODB_ASSIGN_OR_RETURN(out.tuples, eval.Eval(expr));
  if (expr.op.kind == LogicalOpKind::kProject) {
    for (const Tuple& t : out.tuples) {
      std::vector<Value> row;
      for (const ScalarExprPtr& e : expr.op.emit) {
        OODB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, t, ctx));
        row.push_back(std::move(v));
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace oodb
