#include "src/query/fingerprint.h"

#include <bit>
#include <cmath>
#include <string>

#include "src/cost/selectivity.h"

namespace oodb {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Two independently-seeded 64-bit lanes; every input perturbs both.
struct Hash128 {
  uint64_t hi = 0x243f6a8885a308d3ull;  // pi
  uint64_t lo = 0x13198a2e03707344ull;

  void Mix(uint64_t v) {
    hi = SplitMix(hi ^ v);
    lo = SplitMix(lo + (v * 0xff51afd7ed558ccdull | 1));
  }
  void MixStr(const std::string& s) {
    Mix(s.size());
    Mix(std::hash<std::string>{}(s));
  }
  void MixValue(const Value& v) {
    Mix(static_cast<uint64_t>(v.kind));
    MixStr(v.KeyString());
  }
  Fingerprint Get() const { return Fingerprint{hi, lo}; }
};

/// Quantizes a selectivity estimate into a half-octave bucket: literals the
/// estimator maps to selectivities within ~1.19x of each other share a
/// bucket and therefore (by assumption) a plan shape.
///
/// Computed from the exact binary decomposition (frexp), not floating-point
/// log2: libm implementations round log2 differently in the last ulp, and a
/// selectivity sitting on a half-octave boundary (any power of two, or
/// sqrt(1/2) scaled by one) would then bucket differently across platforms —
/// and the bucket feeds the plan-cache fingerprint, which must be
/// bit-deterministic. floor semantics: bucket k covers [2^(k/2), 2^((k+1)/2)).
int64_t SelectivityBucket(double sel) {
  if (!(sel > 0.0)) return INT64_MIN;
  // Nearest double to sqrt(1/2), the mantissa's half-octave split point.
  constexpr double kSqrtHalf = 0.70710678118654752440;
  int exp = 0;
  double mantissa = std::frexp(sel, &exp);  // sel = mantissa * 2^exp, exact
  // floor(2*log2(sel)): mantissa in [0.5, 1) contributes half-octave -2 or
  // -1 relative to 2^exp depending on which side of sqrt(1/2) it falls.
  return 2 * (static_cast<int64_t>(exp) - 1) + (mantissa >= kSqrtHalf ? 1 : 0);
}

/// True when `child` of `parent` is a parameterizable literal: a constant
/// operand of a comparison. Constants elsewhere (constant-true join
/// predicates and other rule-synthesized booleans) are structural and are
/// always keyed exactly.
bool IsParameterizable(const ScalarExpr* parent, const ScalarExpr& child) {
  return parent != nullptr && parent->kind() == ScalarExpr::Kind::kCmp &&
         child.kind() == ScalarExpr::Kind::kConst;
}

struct FingerprintWalker {
  const QueryContext& ctx;
  bool parameterize;
  Hash128 h;
  std::vector<Value> literals;
  SelectivityEstimator est;

  explicit FingerprintWalker(const QueryContext& c, bool param)
      : ctx(c), parameterize(param), est(&c) {}

  void WalkExpr(const ScalarExprPtr& e, const ScalarExpr* parent) {
    if (!e) {
      h.Mix(0x6e756c6c);  // null marker
      return;
    }
    h.Mix(static_cast<uint64_t>(e->kind()) + 0x51);
    switch (e->kind()) {
      case ScalarExpr::Kind::kAttr:
        h.Mix(static_cast<uint64_t>(e->binding()) * 8191 +
              static_cast<uint64_t>(e->field()));
        break;
      case ScalarExpr::Kind::kSelf:
        h.Mix(static_cast<uint64_t>(e->binding()));
        break;
      case ScalarExpr::Kind::kConst:
        if (parameterize && IsParameterizable(parent, *e)) {
          // Keyed by position only (the enclosing comparison mixed in its
          // selectivity bucket); the value is extracted for rebinding.
          h.Mix(0x706172616dull);  // "param"
          literals.push_back(e->value());
        } else {
          h.MixValue(e->value());
        }
        break;
      case ScalarExpr::Kind::kCmp: {
        h.Mix(static_cast<uint64_t>(e->cmp_op()) + 0x11);
        bool has_literal = false;
        for (const ScalarExprPtr& c : e->children()) {
          has_literal |= c->kind() == ScalarExpr::Kind::kConst;
        }
        if (parameterize && has_literal) {
          // The literal's value participates only through its selectivity
          // bucket: literals the estimator cannot distinguish (same index /
          // same [min,max] interpolation bucket) share the key; literals
          // that shift the estimate enough to change plan shape diverge.
          h.Mix(static_cast<uint64_t>(SelectivityBucket(est.Estimate(e))));
        }
        break;
      }
      case ScalarExpr::Kind::kAnd:
      case ScalarExpr::Kind::kOr:
      case ScalarExpr::Kind::kNot:
        h.Mix(e->children().size());
        break;
    }
    for (const ScalarExprPtr& c : e->children()) WalkExpr(c, e.get());
  }

  void WalkOp(const LogicalOp& op) {
    h.Mix(static_cast<uint64_t>(op.kind) + 0xa1);
    switch (op.kind) {
      case LogicalOpKind::kGet:
        h.Mix(static_cast<uint64_t>(op.coll.kind));
        h.MixStr(op.coll.name);
        h.Mix(static_cast<uint64_t>(op.coll.type) * 131 +
              static_cast<uint64_t>(op.binding));
        break;
      case LogicalOpKind::kSelect:
      case LogicalOpKind::kJoin:
        WalkExpr(op.pred, nullptr);
        break;
      case LogicalOpKind::kProject:
        h.Mix(op.emit.size());
        for (const ScalarExprPtr& e : op.emit) WalkExpr(e, nullptr);
        break;
      case LogicalOpKind::kMat:
      case LogicalOpKind::kUnnest:
        h.Mix(static_cast<uint64_t>(op.source) * 1000003 +
              static_cast<uint64_t>(op.field) * 8191 +
              static_cast<uint64_t>(op.target));
        break;
    }
  }

  void WalkTree(const LogicalExpr& t) {
    WalkOp(t.op);
    h.Mix(t.children.size());
    for (const LogicalExprPtr& c : t.children) WalkTree(*c);
  }
};

}  // namespace

QueryFingerprint FingerprintQuery(const LogicalExpr& tree,
                                  const QueryContext& ctx,
                                  bool parameterize_literals) {
  FingerprintWalker w(ctx, parameterize_literals);
  // A cache must never serve plans across catalogs: fold the catalog's
  // identity into the fingerprint.
  w.h.Mix(reinterpret_cast<uintptr_t>(ctx.catalog));
  // Binding signatures, in id order (ids are structural: simplification
  // assigns them deterministically; names are display-only and excluded so
  // alias renames share entries).
  w.h.Mix(ctx.bindings.size());
  for (BindingId b = 0; b < static_cast<BindingId>(ctx.bindings.size()); ++b) {
    const BindingDef& def = ctx.bindings.def(b);
    w.h.Mix(static_cast<uint64_t>(def.type) * 1000003 +
            static_cast<uint64_t>(def.origin) * 8191 +
            static_cast<uint64_t>(def.is_ref));
    w.h.Mix(static_cast<uint64_t>(def.parent) * 131 +
            static_cast<uint64_t>(def.via_field) + 7);
  }
  w.WalkTree(tree);
  QueryFingerprint out;
  out.fp = w.h.Get();
  out.literals = std::move(w.literals);
  return out;
}

uint64_t HashOptimizerOptions(const OptimizerOptions& opts) {
  Hash128 h;
  const CostModelOptions& c = opts.cost;
  h.Mix(static_cast<uint64_t>(c.page_size));
  for (double v : {c.random_io_s, c.seq_io_s, c.cpu_scan_tuple_s, c.cpu_pred_s,
                   c.cpu_hash_build_s, c.cpu_hash_probe_s, c.cpu_unnest_s,
                   c.cpu_copy_byte_s, c.cpu_deref_s, c.index_probe_s,
                   c.index_leaf_s, c.assembly_window_discount_floor,
                   c.memory_bytes, c.cpu_batch_overhead_s,
                   c.exchange_startup_s, c.exchange_flow_tuple_s}) {
    h.Mix(std::bit_cast<uint64_t>(v));
  }
  h.Mix(static_cast<uint64_t>(c.assembly_window));
  h.Mix(static_cast<uint64_t>(c.exec_batch_size));
  h.Mix(static_cast<uint64_t>(opts.max_dop));
  h.Mix(opts.disabled_rules.size());
  for (const std::string& r : opts.disabled_rules) h.MixStr(r);
  h.Mix((static_cast<uint64_t>(opts.enable_warm_start_assembly) << 2) |
        (static_cast<uint64_t>(opts.enable_merge_join) << 1) |
        static_cast<uint64_t>(opts.enable_pruning));
  // Deliberately unmixed: `governor` and `verify_plans`. Neither changes
  // which plan wins — the governor only bounds search effort, and the
  // verifier only inspects the result — so sessions differing in them
  // should share cache entries.
  Fingerprint f = h.Get();
  return f.hi ^ (f.lo * 0x9e3779b97f4a7c15ull);
}

namespace {

bool MatchExpr(const ScalarExprPtr& cached, const ScalarExprPtr& fresh,
               const ScalarExpr* cached_parent, ExprSubstitution* subst) {
  if (!cached || !fresh) return cached == nullptr && fresh == nullptr;
  if (cached->kind() != fresh->kind()) return false;
  switch (cached->kind()) {
    case ScalarExpr::Kind::kAttr:
      if (cached->binding() != fresh->binding() ||
          cached->field() != fresh->field()) {
        return false;
      }
      break;
    case ScalarExpr::Kind::kSelf:
      if (cached->binding() != fresh->binding()) return false;
      break;
    case ScalarExpr::Kind::kConst:
      // Comparison literals are exactly the parameterized positions: values
      // may differ. Structural constants must agree exactly.
      if (!IsParameterizable(cached_parent, *cached) &&
          !(cached->value() == fresh->value())) {
        return false;
      }
      break;
    case ScalarExpr::Kind::kCmp:
      if (cached->cmp_op() != fresh->cmp_op()) return false;
      break;
    case ScalarExpr::Kind::kAnd:
    case ScalarExpr::Kind::kOr:
    case ScalarExpr::Kind::kNot:
      break;
  }
  if (cached->children().size() != fresh->children().size()) return false;
  for (size_t i = 0; i < cached->children().size(); ++i) {
    if (!MatchExpr(cached->children()[i], fresh->children()[i], cached.get(),
                   subst)) {
      return false;
    }
  }
  (*subst)[cached.get()] = fresh;
  return true;
}

bool MatchOp(const LogicalOp& cached, const LogicalOp& fresh,
             ExprSubstitution* subst) {
  if (cached.kind != fresh.kind) return false;
  if (!(cached.coll == fresh.coll) || cached.binding != fresh.binding ||
      cached.source != fresh.source || cached.field != fresh.field ||
      cached.target != fresh.target) {
    return false;
  }
  if (cached.emit.size() != fresh.emit.size()) return false;
  for (size_t i = 0; i < cached.emit.size(); ++i) {
    if (!MatchExpr(cached.emit[i], fresh.emit[i], nullptr, subst)) {
      return false;
    }
  }
  if ((cached.pred == nullptr) != (fresh.pred == nullptr)) return false;
  if (cached.pred != nullptr &&
      !MatchExpr(cached.pred, fresh.pred, nullptr, subst)) {
    return false;
  }
  return true;
}

bool MatchTree(const LogicalExpr& cached, const LogicalExpr& fresh,
               ExprSubstitution* subst) {
  if (!MatchOp(cached.op, fresh.op, subst)) return false;
  if (cached.children.size() != fresh.children.size()) return false;
  for (size_t i = 0; i < cached.children.size(); ++i) {
    if (!MatchTree(*cached.children[i], *fresh.children[i], subst)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool MatchParameterizedTrees(const LogicalExpr& cached,
                             const BindingTable& cached_bindings,
                             const LogicalExpr& fresh,
                             const BindingTable& fresh_bindings,
                             ExprSubstitution* subst) {
  if (cached_bindings.size() != fresh_bindings.size()) return false;
  for (BindingId b = 0; b < static_cast<BindingId>(cached_bindings.size());
       ++b) {
    const BindingDef& a = cached_bindings.def(b);
    const BindingDef& c = fresh_bindings.def(b);
    if (a.type != c.type || a.origin != c.origin || a.parent != c.parent ||
        a.via_field != c.via_field || a.is_ref != c.is_ref) {
      return false;
    }
  }
  return MatchTree(cached, fresh, subst);
}

ScalarExprPtr SubstituteExpr(const ScalarExprPtr& expr,
                             const ExprSubstitution& subst) {
  if (!expr) return expr;
  auto it = subst.find(expr.get());
  if (it != subst.end()) return it->second;
  // Rule-synthesized structure around original subtrees: rebuild around the
  // substituted children; leaves outside the map are literal-independent.
  std::vector<ScalarExprPtr> children;
  children.reserve(expr->children().size());
  bool changed = false;
  for (const ScalarExprPtr& c : expr->children()) {
    ScalarExprPtr s = SubstituteExpr(c, subst);
    changed |= (s != c);
    children.push_back(std::move(s));
  }
  if (!changed) return expr;
  switch (expr->kind()) {
    case ScalarExpr::Kind::kCmp:
      return ScalarExpr::Cmp(expr->cmp_op(), std::move(children[0]),
                             std::move(children[1]));
    case ScalarExpr::Kind::kAnd:
      return ScalarExpr::And(std::move(children));
    case ScalarExpr::Kind::kOr:
      return ScalarExpr::Or(std::move(children));
    case ScalarExpr::Kind::kNot:
      return ScalarExpr::Not(std::move(children[0]));
    default:
      return expr;  // leaves have no children; unreachable with changed set
  }
}

int64_t LimitBucket(int64_t limit) {
  if (limit <= 0) return 0;
  int64_t width = 0;
  for (uint64_t v = static_cast<uint64_t>(limit); v != 0; v >>= 1) ++width;
  return width;  // bit width: floor(log2(k)) + 1
}

}  // namespace oodb
