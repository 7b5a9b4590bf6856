#include "src/exec/tuple.h"

#include "src/storage/object_store.h"

namespace oodb {

void Tuple::MergeFrom(TupleRef other) {
  if (slots.size() < other.width) slots.resize(other.width);
  for (size_t i = 0; i < other.width; ++i) {
    if (other.slots[i].present()) slots[i] = other.slots[i];
  }
}

TupleBatch::ColumnCache* TupleBatch::FindOrAddColumn(BindingId binding,
                                                     FieldId field,
                                                     bool* fresh) {
  for (std::unique_ptr<ColumnCache>& c : columns_) {
    if (c->binding == binding && c->field == field) {
      *fresh = c->epoch != epoch_;
      c->epoch = epoch_;
      return c.get();
    }
  }
  columns_.push_back(std::make_unique<ColumnCache>());
  ColumnCache* c = columns_.back().get();
  c->binding = binding;
  c->field = field;
  c->epoch = epoch_;
  *fresh = true;
  return c;
}

const ColumnView* TupleBatch::ExtractFieldColumn(BindingId binding,
                                                 FieldId field,
                                                 const ColumnProjection* proj) {
  bool fresh = false;
  ColumnCache* c = FindOrAddColumn(binding, field, &fresh);
  if (!fresh) return c->usable ? &c->view : nullptr;
  const size_t n = size_;
  const size_t w = static_cast<size_t>(width_);
  const Slot* base = slots_.data() + binding;
  c->bits.assign((n + 63) / 64, 0);
  c->usable = false;
  bool all_loaded = true;

  if (proj != nullptr && proj->homogeneous) {
    // Store-projection gather: one indexed load per row, no object chase.
    c->view.is_real = proj->is_real;
    if (proj->is_real) {
      c->reals.resize(n);
      const double* src = proj->reals.data();
      for (size_t i = 0; i < n; ++i) {
        const Slot& s = base[i * w];
        bool ld = s.loaded();
        all_loaded &= ld;
        c->bits[i >> 6] |= static_cast<uint64_t>(ld) << (i & 63);
        c->reals[i] = s.ref >= 0 ? src[s.ref] : 0.0;
      }
      c->view.reals = c->reals.data();
      c->view.ints = nullptr;
    } else {
      c->ints.resize(n);
      const int64_t* src = proj->ints.data();
      for (size_t i = 0; i < n; ++i) {
        const Slot& s = base[i * w];
        bool ld = s.loaded();
        all_loaded &= ld;
        c->bits[i >> 6] |= static_cast<uint64_t>(ld) << (i & 63);
        c->ints[i] = s.ref >= 0 ? src[s.ref] : 0;
      }
      c->view.ints = c->ints.data();
      c->view.reals = nullptr;
    }
  } else {
    // Slot-arena gather: chase each loaded row's object and infer the
    // column's kind from the stored values. A kind mix (or a non-numeric
    // column) cannot be typed — remember that for this epoch.
    Value::Kind kind = Value::Kind::kNull;
    for (size_t i = 0; i < n; ++i) {
      const Slot& s = base[i * w];
      if (!s.loaded()) continue;
      kind = s.obj->value(field).kind;
      break;
    }
    if (kind != Value::Kind::kInt && kind != Value::Kind::kDouble) {
      return nullptr;
    }
    bool is_real = kind == Value::Kind::kDouble;
    c->view.is_real = is_real;
    if (is_real) {
      c->reals.resize(n);
    } else {
      c->ints.resize(n);
    }
    for (size_t i = 0; i < n; ++i) {
      const Slot& s = base[i * w];
      bool ld = s.loaded();
      all_loaded &= ld;
      c->bits[i >> 6] |= static_cast<uint64_t>(ld) << (i & 63);
      if (!ld) {
        if (is_real) {
          c->reals[i] = 0.0;
        } else {
          c->ints[i] = 0;
        }
        continue;
      }
      const Value& v = s.obj->value(field);
      if (v.kind != kind) return nullptr;  // mixed kinds: untypeable
      if (is_real) {
        c->reals[i] = v.d;
      } else {
        c->ints[i] = v.i;
      }
    }
    c->view.ints = is_real ? nullptr : c->ints.data();
    c->view.reals = is_real ? c->reals.data() : nullptr;
  }
  c->view.all_loaded = all_loaded;
  c->view.loaded = c->bits.data();
  c->usable = true;
  return &c->view;
}

const ColumnView* TupleBatch::ExtractOidColumn(BindingId binding) {
  bool fresh = false;
  ColumnCache* c = FindOrAddColumn(binding, kInvalidField, &fresh);
  if (!fresh) return c->usable ? &c->view : nullptr;
  const size_t n = size_;
  const size_t w = static_cast<size_t>(width_);
  const Slot* base = slots_.data() + binding;
  c->ints.resize(n);
  c->bits.assign((n + 63) / 64, 0);
  bool all_present = true;
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = base[i * w];
    bool present = s.present();
    all_present &= present;
    c->bits[i >> 6] |= static_cast<uint64_t>(present) << (i & 63);
    c->ints[i] = s.ref;
  }
  c->view.ints = c->ints.data();
  c->view.reals = nullptr;
  c->view.is_real = false;
  c->view.all_loaded = all_present;
  c->view.loaded = c->bits.data();
  c->usable = true;
  return &c->view;
}

Result<Value> EvalExpr(const ScalarExpr& expr, TupleRef tuple,
                       const QueryContext& ctx) {
  switch (expr.kind()) {
    case ScalarExpr::Kind::kAttr: {
      const Slot& s = tuple.slot(expr.binding());
      if (!s.loaded()) {
        return Status::Internal(
            "attribute read on component not present in memory: " +
            ctx.bindings.def(expr.binding()).name);
      }
      return s.obj->value(expr.field());
    }
    case ScalarExpr::Kind::kSelf:
      return Value::Int(tuple.slot(expr.binding()).ref);
    case ScalarExpr::Kind::kConst:
      return expr.value();
    case ScalarExpr::Kind::kCmp: {
      OODB_ASSIGN_OR_RETURN(Value l,
                            EvalExpr(*expr.children()[0], tuple, ctx));
      OODB_ASSIGN_OR_RETURN(Value r,
                            EvalExpr(*expr.children()[1], tuple, ctx));
      if (expr.cmp_op() == CmpOp::kEq) return Value::Int(l == r ? 1 : 0);
      if (expr.cmp_op() == CmpOp::kNe) return Value::Int(l == r ? 0 : 1);
      return Value::Int(EvalCmp(expr.cmp_op(), l.Compare(r)) ? 1 : 0);
    }
    case ScalarExpr::Kind::kAnd: {
      for (const ScalarExprPtr& c : expr.children()) {
        OODB_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, tuple, ctx));
        if (v.i == 0) return Value::Int(0);
      }
      return Value::Int(1);
    }
    case ScalarExpr::Kind::kOr: {
      for (const ScalarExprPtr& c : expr.children()) {
        OODB_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, tuple, ctx));
        if (v.i != 0) return Value::Int(1);
      }
      return Value::Int(0);
    }
    case ScalarExpr::Kind::kNot: {
      OODB_ASSIGN_OR_RETURN(Value v,
                            EvalExpr(*expr.children()[0], tuple, ctx));
      return Value::Int(v.i == 0 ? 1 : 0);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const ScalarExprPtr& pred, TupleRef tuple,
                           const QueryContext& ctx) {
  if (!pred) return true;
  OODB_ASSIGN_OR_RETURN(Value v, EvalExpr(*pred, tuple, ctx));
  return v.i != 0;
}

Result<bool> EvalConjuncts(const std::vector<ScalarExprPtr>& conjuncts,
                           TupleRef tuple, const QueryContext& ctx,
                           size_t* evals) {
  for (const ScalarExprPtr& c : conjuncts) {
    ++*evals;
    OODB_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, tuple, ctx));
    if (v.i == 0) return false;
  }
  return true;
}

FilterProgram FilterProgram::Analyze(const ScalarExprPtr& pred) {
  FilterProgram prog;
  if (!pred) return prog;
  std::vector<ScalarExprPtr> conjuncts = ScalarExpr::SplitConjuncts(pred);
  prog.steps_.reserve(conjuncts.size());
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->kind() != ScalarExpr::Kind::kCmp) return prog;
    const ScalarExpr& l = *c->children()[0];
    const ScalarExpr& r = *c->children()[1];
    CmpStep step;
    if (l.kind() == ScalarExpr::Kind::kAttr &&
        r.kind() == ScalarExpr::Kind::kConst) {
      step = {l.binding(), l.field(), c->cmp_op(), &r.value(), false};
    } else if (l.kind() == ScalarExpr::Kind::kConst &&
               r.kind() == ScalarExpr::Kind::kAttr) {
      step = {r.binding(), r.field(), ReverseCmp(c->cmp_op()), &l.value(),
              true};
    } else {
      return prog;  // unspecializable conjunct; specialized_ stays false
    }
    prog.steps_.push_back(step);
  }
  prog.specialized_ = true;
  return prog;
}

ScalarExprPtr FilterProgram::ReconstructedPredicate() const {
  if (!specialized_) return nullptr;
  std::vector<ScalarExprPtr> conjuncts;
  conjuncts.reserve(steps_.size());
  for (const CmpStep& step : steps_) {
    ScalarExprPtr attr = ScalarExpr::Attr(step.binding, step.field);
    ScalarExprPtr constant = ScalarExpr::Const(*step.constant);
    conjuncts.push_back(
        step.reversed
            ? ScalarExpr::Cmp(ReverseCmp(step.op), std::move(constant),
                              std::move(attr))
            : ScalarExpr::Cmp(step.op, std::move(attr), std::move(constant)));
  }
  return ScalarExpr::CombineConjuncts(std::move(conjuncts));
}

bool FilterProgram::StepPass(const CmpStep& step, const Value& l) {
  const Value& r = *step.constant;
  if (l.kind == Value::Kind::kInt && r.kind == Value::Kind::kInt) {
    // The common case — integer field vs integer literal — compares
    // without touching Value dispatch at all.
    return EvalCmp(step.op, l.i < r.i ? -1 : (l.i == r.i ? 0 : 1));
  }
  if (step.op == CmpOp::kEq) return l == r;
  if (step.op == CmpOp::kNe) return !(l == r);
  return EvalCmp(step.op, l.Compare(r));
}

bool FilterProgram::SingleBinding(BindingId b) const {
  for (const CmpStep& step : steps_) {
    if (step.binding != b) return false;
  }
  return true;
}

bool FilterProgram::EvalSteps(const ObjectData& obj, size_t* evals) const {
  for (const CmpStep& step : steps_) {
    ++*evals;
    if (!StepPass(step, obj.value(step.field))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Columnar kernels
// ---------------------------------------------------------------------------
namespace {

/// The comparison a step performs when lowered onto a typed column,
/// reproducing StepPass/Value::Compare semantics exactly:
///   - int column vs int constant: pure int64 three-way (kI64);
///   - any other numeric pairing: both sides promoted to double (kF64),
///     which is what Value::Compare and cross-kind operator== do;
///   - non-numeric constant (string/null): Eq can never hold against a
///     numeric column (kNone), Ne always holds (kAll), and ordering
///     compares against the constant's numeric view (its `d`, 0.0).
struct StepKernel {
  enum class Mode { kI64, kF64, kNone, kAll };
  Mode mode = Mode::kF64;
  CmpOp op = CmpOp::kEq;
  int64_t ci = 0;
  double cd = 0.0;
  bool col_is_real = false;  ///< kF64 over an int column promotes each value
};

StepKernel MakeKernel(bool col_is_real, CmpOp op, const Value& c) {
  StepKernel k;
  k.op = op;
  k.col_is_real = col_is_real;
  if (!col_is_real && c.kind == Value::Kind::kInt) {
    k.mode = StepKernel::Mode::kI64;
    k.ci = c.i;
    return k;
  }
  if (c.kind == Value::Kind::kInt || c.kind == Value::Kind::kDouble) {
    k.mode = StepKernel::Mode::kF64;
    k.cd = c.kind == Value::Kind::kInt ? static_cast<double>(c.i) : c.d;
    return k;
  }
  if (op == CmpOp::kEq) {
    k.mode = StepKernel::Mode::kNone;
  } else if (op == CmpOp::kNe) {
    k.mode = StepKernel::Mode::kAll;
  } else {
    k.mode = StepKernel::Mode::kF64;
    k.cd = c.d;
  }
  return k;
}

/// One branchless compare-and-select pass: writes to sel_out the indices
/// (drawn from sel_in, or the identity [0, n) when sel_in is null) whose
/// value passes `cmp`. The index is stored unconditionally and the output
/// cursor advances by the predicate, so the loop body carries no
/// data-dependent branch and auto-vectorizes.
template <typename Get, typename Cmp>
size_t SelectPass(size_t n, const uint16_t* sel_in, uint16_t* sel_out,
                  const Get& get, const Cmp& cmp) {
  size_t out = 0;
  if (sel_in == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      sel_out[out] = static_cast<uint16_t>(i);
      out += cmp(get(i)) ? 1 : 0;
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      uint16_t i = sel_in[k];
      sel_out[out] = i;
      out += cmp(get(i)) ? 1 : 0;
    }
  }
  return out;
}

template <typename T, typename Get>
size_t SelectCmp(CmpOp op, T c, size_t n, const uint16_t* sel_in,
                 uint16_t* sel_out, const Get& get) {
  switch (op) {
    case CmpOp::kEq:
      return SelectPass(n, sel_in, sel_out, get, [c](T v) { return v == c; });
    case CmpOp::kNe:
      return SelectPass(n, sel_in, sel_out, get, [c](T v) { return v != c; });
    case CmpOp::kLt:
      return SelectPass(n, sel_in, sel_out, get, [c](T v) { return v < c; });
    case CmpOp::kLe:
      return SelectPass(n, sel_in, sel_out, get, [c](T v) { return v <= c; });
    case CmpOp::kGt:
      return SelectPass(n, sel_in, sel_out, get, [c](T v) { return v > c; });
    case CmpOp::kGe:
      return SelectPass(n, sel_in, sel_out, get, [c](T v) { return v >= c; });
  }
  return 0;
}

/// Runs one step kernel over `n` candidates. `geti`/`getr` fetch the value
/// at a physical row index from the int/real column respectively (only the
/// one matching the column's type is called; an int column compared in
/// kF64 mode is promoted value by value).
template <typename GetI, typename GetR>
size_t RunKernel(const StepKernel& k, size_t n, const uint16_t* sel_in,
                 uint16_t* sel_out, const GetI& geti, const GetR& getr) {
  switch (k.mode) {
    case StepKernel::Mode::kNone:
      return 0;
    case StepKernel::Mode::kAll:
      if (sel_in == nullptr) {
        for (size_t i = 0; i < n; ++i) sel_out[i] = static_cast<uint16_t>(i);
      }  // else: in-place, already there
      return n;
    case StepKernel::Mode::kI64:
      return SelectCmp<int64_t>(k.op, k.ci, n, sel_in, sel_out, geti);
    case StepKernel::Mode::kF64:
      if (k.col_is_real) {
        return SelectCmp<double>(k.op, k.cd, n, sel_in, sel_out, getr);
      }
      return SelectCmp<double>(
          k.op, k.cd, n, sel_in, sel_out,
          [&geti](size_t i) { return static_cast<double>(geti(i)); });
  }
  return 0;
}

}  // namespace

std::vector<const ColumnProjection*> FilterProgram::StepProjections(
    ObjectStore* store, const QueryContext& ctx) const {
  std::vector<const ColumnProjection*> projs;
  if (!specialized_) return projs;
  projs.resize(steps_.size(), nullptr);
  for (size_t s = 0; s < steps_.size(); ++s) {
    TypeId type = ctx.bindings.def(steps_[s].binding).type;
    projs[s] = store->Projection(type, steps_[s].field);
  }
  return projs;
}

bool FilterProgram::Vectorizable(
    const std::vector<const ColumnProjection*>& projs) const {
  if (!specialized_ || projs.size() != steps_.size()) return false;
  for (const ColumnProjection* p : projs) {
    if (p == nullptr || !p->homogeneous) return false;
  }
  return true;
}

size_t FilterProgram::ScanSelect(
    const Oid* oids, size_t n,
    const std::vector<const ColumnProjection*>& projs, uint16_t* sel,
    size_t* evals) const {
  size_t cnt = n;
  const uint16_t* in = nullptr;
  for (size_t s = 0; s < steps_.size() && cnt > 0; ++s) {
    *evals += cnt;
    const ColumnProjection& p = *projs[s];
    StepKernel kern = MakeKernel(p.is_real, steps_[s].op, *steps_[s].constant);
    const int64_t* pi = p.ints.data();
    const double* pd = p.reals.data();
    // Values come straight out of the dense by-OID projection — the gather
    // is part of the kernel loop, so rejected rows cost one load and one
    // compare and are never materialized into slots.
    cnt = RunKernel(
        kern, cnt, in, sel,
        [pi, oids](size_t i) { return pi[oids[i]]; },
        [pd, oids](size_t i) { return pd[oids[i]]; });
    in = sel;
  }
  return cnt;
}

Result<bool> FilterProgram::EvalBatchColumnar(
    TupleBatch* batch, const std::vector<const ColumnProjection*>& projs,
    const QueryContext& ctx, size_t* evals) const {
  if (!specialized_) return false;
  const size_t num_steps = steps_.size();
  // Extract every referenced column before touching the selection, so a
  // fallback (some column untypeable) leaves the batch exactly as it was.
  const ColumnView* cols[16];
  std::vector<const ColumnView*> cols_big;
  const ColumnView** colp = cols;
  if (num_steps > 16) {
    cols_big.resize(num_steps);
    colp = cols_big.data();
  }
  for (size_t s = 0; s < num_steps; ++s) {
    const ColumnProjection* proj = s < projs.size() ? projs[s] : nullptr;
    colp[s] =
        batch->ExtractFieldColumn(steps_[s].binding, steps_[s].field, proj);
    if (colp[s] == nullptr) return false;
  }
  const bool had_sel = batch->has_selection();
  uint16_t* sel = batch->MutableSelection();
  size_t cnt = had_sel ? batch->active() : batch->size();
  for (size_t s = 0; s < num_steps && cnt > 0; ++s) {
    *evals += cnt;
    const ColumnView& col = *colp[s];
    const uint16_t* in = (s == 0 && !had_sel) ? nullptr : sel;
    if (!col.all_loaded) {
      // Mirror the row loop's error discipline: only rows still alive when
      // this conjunct runs may trip the present-in-memory check.
      for (size_t k = 0; k < cnt; ++k) {
        size_t i = in == nullptr ? k : in[k];
        if (!col.loaded_at(i)) {
          return Status::Internal(
              "attribute read on component not present in memory: " +
              ctx.bindings.def(steps_[s].binding).name);
        }
      }
    }
    StepKernel kern =
        MakeKernel(col.is_real, steps_[s].op, *steps_[s].constant);
    const int64_t* ints = col.ints;
    const double* reals = col.reals;
    cnt = RunKernel(
        kern, cnt, in, sel, [ints](size_t i) { return ints[i]; },
        [reals](size_t i) { return reals[i]; });
  }
  batch->SetSelection(cnt);
  return true;
}

}  // namespace oodb
