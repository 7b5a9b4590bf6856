#include "src/algebra/logical_op.h"

#include <sstream>

#include "src/common/strings.h"

namespace oodb {

namespace {
size_t HashCombine(size_t a, size_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}
}  // namespace

const char* LogicalOpKindName(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kGet:
      return "Get";
    case LogicalOpKind::kSelect:
      return "Select";
    case LogicalOpKind::kProject:
      return "Project";
    case LogicalOpKind::kMat:
      return "Mat";
    case LogicalOpKind::kUnnest:
      return "Unnest";
    case LogicalOpKind::kJoin:
      return "Join";
  }
  return "?";
}

LogicalOp LogicalOp::Get(CollectionId coll, BindingId binding) {
  LogicalOp op;
  op.kind = LogicalOpKind::kGet;
  op.coll = std::move(coll);
  op.binding = binding;
  return op;
}

LogicalOp LogicalOp::Select(ScalarExprPtr pred) {
  LogicalOp op;
  op.kind = LogicalOpKind::kSelect;
  op.pred = pred ? CanonicalConjunction(ScalarExpr::SplitConjuncts(pred))
                 : nullptr;
  return op;
}

LogicalOp LogicalOp::Project(std::vector<ScalarExprPtr> emit) {
  LogicalOp op;
  op.kind = LogicalOpKind::kProject;
  op.emit = std::move(emit);
  return op;
}

LogicalOp LogicalOp::Mat(BindingId source, FieldId field, BindingId target) {
  LogicalOp op;
  op.kind = LogicalOpKind::kMat;
  op.source = source;
  op.field = field;
  op.target = target;
  return op;
}

LogicalOp LogicalOp::MatRef(BindingId ref_binding, BindingId target) {
  return Mat(ref_binding, kInvalidField, target);
}

LogicalOp LogicalOp::Unnest(BindingId source, FieldId set_field,
                            BindingId target) {
  LogicalOp op;
  op.kind = LogicalOpKind::kUnnest;
  op.source = source;
  op.field = set_field;
  op.target = target;
  return op;
}

LogicalOp LogicalOp::Join(ScalarExprPtr pred) {
  LogicalOp op;
  op.kind = LogicalOpKind::kJoin;
  op.pred = std::move(pred);
  return op;
}

int LogicalOp::Arity() const {
  switch (kind) {
    case LogicalOpKind::kGet:
      return 0;
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kProject:
    case LogicalOpKind::kMat:
    case LogicalOpKind::kUnnest:
      return 1;
    case LogicalOpKind::kJoin:
      return 2;
  }
  return 0;
}

bool LogicalOp::operator==(const LogicalOp& o) const {
  if (kind != o.kind) return false;
  switch (kind) {
    case LogicalOpKind::kGet:
      return coll == o.coll && binding == o.binding;
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kJoin:
      return ExprPtrEquals(pred, o.pred);
    case LogicalOpKind::kProject:
      if (emit.size() != o.emit.size()) return false;
      for (size_t i = 0; i < emit.size(); ++i) {
        if (!ExprPtrEquals(emit[i], o.emit[i])) return false;
      }
      return true;
    case LogicalOpKind::kMat:
    case LogicalOpKind::kUnnest:
      return source == o.source && field == o.field && target == o.target;
  }
  return false;
}

size_t LogicalOp::Hash() const {
  size_t h = static_cast<size_t>(kind) * 0x100000001b3ull;
  switch (kind) {
    case LogicalOpKind::kGet:
      h = HashCombine(h, std::hash<std::string>()(coll.name));
      h = HashCombine(h, static_cast<size_t>(coll.kind));
      h = HashCombine(h, static_cast<size_t>(coll.type) * 131 + binding);
      break;
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kJoin:
      h = HashCombine(h, HashExprPtr(pred));
      break;
    case LogicalOpKind::kProject:
      for (const ScalarExprPtr& e : emit) h = HashCombine(h, HashExprPtr(e));
      break;
    case LogicalOpKind::kMat:
    case LogicalOpKind::kUnnest:
      h = HashCombine(h, static_cast<size_t>(source) * 1009 +
                             static_cast<size_t>(field + 1) * 31 + target);
      break;
  }
  return h;
}

std::string LogicalOp::ToString(const QueryContext& ctx) const {
  const BindingTable& b = ctx.bindings;
  const Schema& s = ctx.schema();
  switch (kind) {
    case LogicalOpKind::kGet:
      return "Get " + coll.Display(s) + ": " + b.def(binding).name;
    case LogicalOpKind::kSelect:
      return "Select " + pred->ToString(b, s);
    case LogicalOpKind::kProject: {
      std::vector<std::string> parts;
      for (const ScalarExprPtr& e : emit) parts.push_back(e->ToString(b, s));
      return "Project " + ::oodb::Join(parts, ", ");
    }
    case LogicalOpKind::kMat:
      if (field == kInvalidField) {
        return "Mat " + b.def(source).name + ": " + b.def(target).name;
      }
      return "Mat " + b.def(target).name;
    case LogicalOpKind::kUnnest:
      return "Unnest " + b.def(source).name + "." +
             s.type(b.def(source).type).field(field).name + ": " +
             b.def(target).name;
    case LogicalOpKind::kJoin:
      return "Join " + pred->ToString(b, s);
  }
  return "?";
}

BindingSet LogicalOp::OutputBindings(
    const std::vector<BindingSet>& child_scopes) const {
  switch (kind) {
    case LogicalOpKind::kGet:
      return BindingSet::Of(binding);
    case LogicalOpKind::kSelect:
      return child_scopes[0];
    case LogicalOpKind::kProject: {
      BindingSet out;
      for (const ScalarExprPtr& e : emit) {
        out = out.Union(e->ReferencedBindings());
      }
      return out;
    }
    case LogicalOpKind::kMat:
    case LogicalOpKind::kUnnest: {
      BindingSet out = child_scopes[0];
      out.Add(target);
      return out;
    }
    case LogicalOpKind::kJoin:
      return child_scopes[0].Union(child_scopes[1]);
  }
  return BindingSet();
}

Status LogicalOp::Validate(const QueryContext& ctx,
                           const std::vector<BindingSet>& child_scopes) const {
  if (static_cast<int>(child_scopes.size()) != Arity()) {
    return Status::PlanError("wrong arity for " +
                             std::string(LogicalOpKindName(kind)));
  }
  const BindingTable& b = ctx.bindings;
  switch (kind) {
    case LogicalOpKind::kGet: {
      if (!b.has(binding)) return Status::PlanError("Get: unknown binding");
      OODB_ASSIGN_OR_RETURN(const CollectionInfo* info,
                            ctx.catalog->FindCollection(coll));
      if (!ctx.schema().IsSubtypeOf(info->id.type, b.def(binding).type) &&
          !ctx.schema().IsSubtypeOf(b.def(binding).type, info->id.type)) {
        return Status::TypeError("Get: binding type does not match collection");
      }
      return Status::OK();
    }
    case LogicalOpKind::kSelect:
      if (!pred) return Status::PlanError("Select: missing predicate");
      if (!child_scopes[0].ContainsAll(pred->ReferencedBindings())) {
        return Status::PlanError("Select: predicate references out of scope");
      }
      return Status::OK();
    case LogicalOpKind::kProject:
      for (const ScalarExprPtr& e : emit) {
        if (!child_scopes[0].ContainsAll(e->ReferencedBindings())) {
          return Status::PlanError("Project: expression references out of scope");
        }
      }
      return Status::OK();
    case LogicalOpKind::kMat: {
      if (!b.has(source) || !b.has(target)) {
        return Status::PlanError("Mat: unknown binding");
      }
      if (!child_scopes[0].Contains(source)) {
        return Status::PlanError("Mat: source not in scope");
      }
      if (child_scopes[0].Contains(target)) {
        return Status::PlanError("Mat: target already in scope");
      }
      if (field == kInvalidField) {
        if (!b.def(source).is_ref) {
          return Status::PlanError("Mat: ref-materialize of non-ref binding");
        }
      } else {
        const TypeDef& st = ctx.schema().type(b.def(source).type);
        if (!st.has_field(field) || st.field(field).kind != FieldKind::kRef) {
          return Status::PlanError("Mat: field is not a single reference");
        }
        if (st.field(field).target_type != b.def(target).type) {
          return Status::TypeError("Mat: target binding type mismatch");
        }
      }
      return Status::OK();
    }
    case LogicalOpKind::kUnnest: {
      if (!b.has(source) || !b.has(target)) {
        return Status::PlanError("Unnest: unknown binding");
      }
      if (!child_scopes[0].Contains(source)) {
        return Status::PlanError("Unnest: source not in scope");
      }
      if (child_scopes[0].Contains(target)) {
        return Status::PlanError("Unnest: target already in scope");
      }
      const TypeDef& st = ctx.schema().type(b.def(source).type);
      if (!st.has_field(field) || st.field(field).kind != FieldKind::kRefSet) {
        return Status::PlanError("Unnest: field is not a set of references");
      }
      return Status::OK();
    }
    case LogicalOpKind::kJoin:
      if (!pred) return Status::PlanError("Join: missing predicate");
      if (child_scopes[0].Intersects(child_scopes[1])) {
        return Status::PlanError("Join: child scopes overlap");
      }
      if (!child_scopes[0].Union(child_scopes[1])
               .ContainsAll(pred->ReferencedBindings())) {
        return Status::PlanError("Join: predicate references out of scope");
      }
      return Status::OK();
  }
  return Status::OK();
}

LogicalExprPtr LogicalExpr::Make(LogicalOp op,
                                 std::vector<LogicalExprPtr> children) {
  auto e = std::make_shared<LogicalExpr>();
  e->op = std::move(op);
  e->children = std::move(children);
  return e;
}

BindingSet LogicalExpr::Scope() const {
  std::vector<BindingSet> child_scopes;
  child_scopes.reserve(children.size());
  for (const LogicalExprPtr& c : children) child_scopes.push_back(c->Scope());
  return op.OutputBindings(child_scopes);
}

Result<BindingSet> ValidateLogicalTree(const LogicalExpr& expr,
                                       const QueryContext& ctx) {
  std::vector<BindingSet> child_scopes;
  for (const LogicalExprPtr& c : expr.children) {
    OODB_ASSIGN_OR_RETURN(BindingSet s, ValidateLogicalTree(*c, ctx));
    child_scopes.push_back(s);
  }
  OODB_RETURN_IF_ERROR(expr.op.Validate(ctx, child_scopes));
  return expr.op.OutputBindings(child_scopes);
}

namespace {
void PrintRec(const LogicalExpr& expr, const QueryContext& ctx, int depth,
              std::ostringstream& os) {
  os << Repeat("    ", depth) << expr.op.ToString(ctx) << "\n";
  for (const LogicalExprPtr& c : expr.children) {
    PrintRec(*c, ctx, depth + 1, os);
  }
}
}  // namespace

std::string PrintLogicalTree(const LogicalExpr& expr, const QueryContext& ctx) {
  std::ostringstream os;
  PrintRec(expr, ctx, 0, os);
  return os.str();
}

}  // namespace oodb
