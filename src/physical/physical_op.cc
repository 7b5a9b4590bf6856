#include "src/physical/physical_op.h"

#include "src/common/strings.h"

namespace oodb {

const char* PhysOpKindName(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kFileScan:
      return "File Scan";
    case PhysOpKind::kIndexScan:
      return "Index Scan";
    case PhysOpKind::kFilter:
      return "Filter";
    case PhysOpKind::kHybridHashJoin:
      return "Hybrid Hash Join";
    case PhysOpKind::kPointerJoin:
      return "Pointer Join";
    case PhysOpKind::kAssembly:
      return "Assembly";
    case PhysOpKind::kAlgProject:
      return "Alg-Project";
    case PhysOpKind::kAlgUnnest:
      return "Alg-Unnest";
    case PhysOpKind::kSort:
      return "Sort";
    case PhysOpKind::kTopK:
      return "TopK";
    case PhysOpKind::kMergeJoin:
      return "Merge Join";
    case PhysOpKind::kNestedLoops:
      return "Nested Loops";
    case PhysOpKind::kExchange:
      return "Exchange";
  }
  return "?";
}

std::string PhysicalOp::ToString(const QueryContext& ctx) const {
  const BindingTable& b = ctx.bindings;
  const Schema& s = ctx.schema();
  std::string name = PhysOpKindName(kind);
  switch (kind) {
    case PhysOpKind::kFileScan:
      return name + " " + coll.Display(s) + ": " + b.def(binding).name;
    case PhysOpKind::kIndexScan: {
      std::string out = name + " " + coll.Display(s) + ": " +
                        b.def(binding).name + ", " +
                        index_pred->ToString(b, s);
      if (pred) out += " [residual " + pred->ToString(b, s) + "]";
      return out;
    }
    case PhysOpKind::kFilter:
      return name + " " + pred->ToString(b, s);
    case PhysOpKind::kHybridHashJoin:
    case PhysOpKind::kPointerJoin:
    case PhysOpKind::kMergeJoin:
    case PhysOpKind::kNestedLoops:
      return name + " " + pred->ToString(b, s);
    case PhysOpKind::kAssembly: {
      std::vector<std::string> parts;
      for (const MatStep& m : mats) {
        if (m.field == kInvalidField) {
          parts.push_back(b.def(m.source).name + ": " + b.def(m.target).name);
        } else {
          parts.push_back(b.def(m.target).name);
        }
      }
      std::string out = name + " " + Join(parts, ", ");
      if (window == 1) out += " [window 1]";
      if (warm_start) out += " [warm-start]";
      return out;
    }
    case PhysOpKind::kAlgProject: {
      std::vector<std::string> parts;
      for (const ScalarExprPtr& e : emit) parts.push_back(e->ToString(b, s));
      return name + " " + Join(parts, ", ");
    }
    case PhysOpKind::kAlgUnnest:
      return name + " " + b.def(source).name + "." +
             s.type(b.def(source).type).field(field).name + ": " +
             b.def(target).name;
    case PhysOpKind::kSort:
    case PhysOpKind::kTopK: {
      std::vector<std::string> parts;
      for (const SortKey& k : sort.keys) {
        const BindingDef& sb = b.def(k.binding);
        parts.push_back(sb.name + "." + s.type(sb.type).field(k.field).name +
                        (k.desc ? " desc" : ""));
      }
      std::string out = name + " " + Join(parts, ", ");
      if (limit > 0) out += " [limit " + std::to_string(limit) + "]";
      if (sort_prefix > 0) {
        out += " [presorted " + std::to_string(sort_prefix) + "]";
      }
      return out;
    }
    case PhysOpKind::kExchange: {
      std::string out = name + " [dop " + std::to_string(dop);
      if (partition_binding != kInvalidBinding) {
        out += ", partition " + b.def(partition_binding).name;
      }
      if (merge) out += ", merge";
      if (limit > 0) out += ", limit " + std::to_string(limit);
      return out + "]";
    }
  }
  return name;
}

}  // namespace oodb
