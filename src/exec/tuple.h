// Runtime tuples: one slot per binding, each holding a reference (OID) and,
// when the component is *present in memory*, a pointer to the loaded object.
// The gap between "slot has a ref" and "slot has a loaded object" is the
// physical present-in-memory property at runtime; expression evaluation
// fails loudly if a plan tries to read a field of an unloaded component,
// which makes execution an end-to-end check of the optimizer's property
// machinery.
//
// Batch layout: operators exchange TupleBatch objects — a fixed-capacity
// batch of rows over a single flat Slot arena (row-major, column count =
// number of bindings). The arena is allocated once per operator and rows
// are recycled across Next() calls, so steady-state execution performs no
// per-tuple heap allocation.
//
// Columnar view: a batch optionally carries (a) a *selection vector* — a
// uint16_t index list marking which rows are alive, so filters mark
// survivors instead of moving Slot rows, with physical compaction deferred
// to pipeline breakers and Exchange serialization points — and (b) cached
// *typed column views*: per (binding, field), the column's values gathered
// once per batch into a contiguous int64/double vector with a presence
// bitmap, which is what the branchless filter kernels and the vectorized
// hash-join probe loop over. Both are invisible to row-at-a-time consumers
// (active()/active_ref() degrade to size()/ref() when no selection is set).
// (c) A batch a Sort or TopK emitted toward a merging Exchange also carries
// its rows' *order words* (SortKeyCodec's encoding), cached like a typed
// column, so the merge reads them instead of gathering and encoding again.
#ifndef OODB_EXEC_TUPLE_H_
#define OODB_EXEC_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/algebra/expr.h"
#include "src/algebra/logical_op.h"
#include "src/physical/phys_props.h"
#include "src/storage/object.h"

namespace oodb {

struct ColumnProjection;
class ObjectStore;

struct Slot {
  Oid ref = kInvalidOid;
  const ObjectData* obj = nullptr;

  bool present() const { return ref != kInvalidOid; }
  bool loaded() const { return obj != nullptr; }
};

struct Tuple;

/// Read-only view of one row — either an owning Tuple or a TupleBatch row.
/// Passed by value (pointer + width); never outlives the storage it views.
struct TupleRef {
  const Slot* slots = nullptr;
  size_t width = 0;

  TupleRef() = default;
  TupleRef(const Slot* s, size_t w) : slots(s), width(w) {}
  TupleRef(const Tuple& t);  // implicit: Tuple evaluates wherever a row does

  const Slot& slot(BindingId b) const { return slots[b]; }
};

/// Owning row used where tuples must outlive their source batch (hash-join
/// build tables, sort buffers, nested-loops buffers).
struct Tuple {
  std::vector<Slot> slots;

  explicit Tuple(int num_bindings = 0) : slots(num_bindings) {}
  /// Copy-constructs straight from a batch row — one copy, one allocation.
  /// (The buffering pattern of reading into a reused Tuple and then pushing
  /// it into a vector costs a second full-width copy per row; see DESIGN
  /// "Columnar execution" for the measured build-side effect.)
  explicit Tuple(TupleRef row) : slots(row.slots, row.slots + row.width) {}
  Slot& slot(BindingId b) { return slots[b]; }
  const Slot& slot(BindingId b) const { return slots[b]; }

  /// Replaces this tuple's contents with a copy of `row`.
  void AssignFrom(TupleRef row) {
    slots.assign(row.slots, row.slots + row.width);
  }

  /// Merges the occupied slots of `other` into this tuple.
  void MergeFrom(TupleRef other);
};

inline TupleRef::TupleRef(const Tuple& t)
    : slots(t.slots.data()), width(t.slots.size()) {}

/// Mutable view of one TupleBatch row. The batch owns the storage; the view
/// is invalidated by Clear()/refill of its batch.
struct TupleRow {
  Slot* slots = nullptr;
  size_t width = 0;

  Slot& slot(BindingId b) { return slots[b]; }
  const Slot& slot(BindingId b) const { return slots[b]; }
  operator TupleRef() const { return TupleRef(slots, width); }

  void Clear() { std::fill(slots, slots + width, Slot{}); }

  /// Copies the first min(width, src.width) slots of `src` into this row.
  void CopyFrom(TupleRef src) {
    std::copy(src.slots, src.slots + std::min(width, src.width), slots);
  }

  /// Merges the occupied slots of `other` into this row.
  void MergeFrom(TupleRef other) {
    size_t n = std::min(width, other.width);
    for (size_t i = 0; i < n; ++i) {
      if (other.slots[i].present()) slots[i] = other.slots[i];
    }
  }
};

/// One typed column of a batch: values of (binding, field) over the batch's
/// physical rows [0, size), gathered into a contiguous vector. Exactly one
/// of ints/reals is set. `loaded` is a presence bitmap (bit i: row i's slot
/// holds a loaded component); kernels take the all_loaded fast path and
/// only walk the bitmap to attribute an error.
struct ColumnView {
  const int64_t* ints = nullptr;
  const double* reals = nullptr;
  bool is_real = false;
  bool all_loaded = false;
  const uint64_t* loaded = nullptr;

  bool loaded_at(size_t i) const {
    return all_loaded || ((loaded[i >> 6] >> (i & 63)) & 1) != 0;
  }
};

/// A fixed-capacity batch of rows over one flat Slot arena. `width` is the
/// number of bindings (columns); row i occupies slots [i*width, (i+1)*width).
class TupleBatch {
 public:
  /// Default rows per batch (the exec_batch_size knob's default).
  static constexpr size_t kDefaultCapacity = 1024;
  /// Selection-vector entries are uint16_t row indices; batch capacity is
  /// clamped here (the executor never asks for more).
  static constexpr size_t kMaxCapacity = 65535;

  TupleBatch() = default;
  TupleBatch(int width, size_t capacity)
      : width_(width),
        capacity_(std::min(capacity, kMaxCapacity)),
        slots_(static_cast<size_t>(width) * std::min(capacity, kMaxCapacity)) {}

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  int width() const { return width_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  TupleRow row(size_t i) {
    ++epoch_;
    return TupleRow{slots_.data() + i * width_, static_cast<size_t>(width_)};
  }
  TupleRef ref(size_t i) const {
    return TupleRef(slots_.data() + i * width_, static_cast<size_t>(width_));
  }

  // --- selection vector ---
  // When set, sel()[0..active()) lists the ascending physical indices of
  // the rows that are alive; the arena itself is untouched. When unset,
  // every row [0, size) is alive.

  bool has_selection() const { return has_sel_; }
  /// Rows alive in this batch — what Next() returns and consumers iterate.
  size_t active() const { return has_sel_ ? sel_size_ : size_; }
  /// Physical index of the k-th alive row.
  size_t active_index(size_t k) const { return has_sel_ ? sel_[k] : k; }
  TupleRef active_ref(size_t k) const { return ref(active_index(k)); }
  TupleRow active_row(size_t k) { return row(active_index(k)); }
  const uint16_t* sel() const { return sel_.data(); }

  /// The capacity-sized selection buffer for kernels to fill (in-place
  /// refinement of the current selection is safe: writes trail reads).
  /// Does not mark the selection active — call SetSelection after filling.
  uint16_t* MutableSelection() {
    if (sel_.size() < capacity_) sel_.resize(capacity_);
    return sel_.data();
  }
  /// Marks the first `n` entries of the selection buffer as the live set.
  void SetSelection(size_t n) {
    has_sel_ = true;
    sel_size_ = n;
  }
  void ClearSelection() {
    has_sel_ = false;
    sel_size_ = 0;
  }

  /// Physically compacts the alive rows to the front and drops the
  /// selection — the lazy compaction at pipeline breakers and Exchange
  /// serialization points. No-op without a selection.
  void Compact() {
    if (!has_sel_) return;
    for (size_t k = 0; k < sel_size_; ++k) {
      size_t i = sel_[k];
      if (i != k) CopyRow(k, i);
    }
    size_ = sel_size_;
    has_sel_ = false;
    sel_size_ = 0;
    ++epoch_;
  }

  // --- typed column views ---

  /// The typed column of (binding, field) over rows [0, size), gathering it
  /// on first use and caching until the batch's rows change. With a store
  /// projection the gather is one indexed load per row; without one it
  /// chases each row's object pointer and infers the column kind from the
  /// values (returning null — per-row fallback — on a kind mix or a
  /// non-numeric column).
  const ColumnView* ExtractFieldColumn(BindingId binding, FieldId field,
                                       const ColumnProjection* proj);

  /// The OID (self/identity) column of `binding`: ints[i] = slot ref, with
  /// the presence bitmap tracking present() rather than loaded().
  const ColumnView* ExtractOidColumn(BindingId binding);

  /// Appends a cleared row and returns a view of it. The arena is fixed, so
  /// this never allocates; callers must not append past capacity().
  TupleRow AppendRow() {
    TupleRow r = row(size_++);
    r.Clear();
    return r;
  }

  /// Appends rows [first, first + n) of `src`, a batch of the same width,
  /// as one block copy. Callers must not append past capacity().
  void AppendRows(const TupleBatch& src, size_t first, size_t n) {
    ++epoch_;
    std::copy(src.slots_.data() + first * width_,
              src.slots_.data() + (first + n) * width_,
              slots_.data() + size_ * width_);
    size_ += n;
  }

  /// Appends a row WITHOUT clearing it — for emit paths that immediately
  /// overwrite every slot (a full-width CopyFrom). Rows are recycled across
  /// Next() calls, so skipping the clear anywhere else leaks stale slots.
  TupleRow AppendRowRaw() { return row(size_++); }

  /// Overwrites row `dst` with row `src` (filter/compaction step).
  void CopyRow(size_t dst, size_t src) {
    ++epoch_;
    std::copy(slots_.data() + src * width_,
              slots_.data() + (src + 1) * width_, slots_.data() + dst * width_);
  }

  void Clear() {
    size_ = 0;
    has_sel_ = false;
    sel_size_ = 0;
    ++epoch_;
  }
  /// Drops rows past `n` (after in-place compaction).
  void Truncate(size_t n) {
    size_ = n;
    ++epoch_;
  }

  // --- attached order words ---

  /// A buffer of size() * keys.size() words for the caller to fill with the
  /// rows' order words under `keys` (row-major, as SortKeyCodec::Encode
  /// writes them), right after writing the rows. SortWords(keys) serves
  /// them until the rows change: any row mutation, Clear or
  /// BatchPool::Take drops them, as it drops the typed columns.
  uint64_t* AttachSortWords(const std::vector<SortKey>& keys) {
    sort_keys_.assign(keys.begin(), keys.end());
    sort_words_.resize(size_ * keys.size());
    sort_epoch_ = epoch_;
    return sort_words_.data();
  }

  /// The attached order words of rows [0, size) when they were attached
  /// under exactly `keys` and no row changed since; null otherwise.
  const uint64_t* SortWords(const std::vector<SortKey>& keys) const {
    return sort_epoch_ == epoch_ && sort_keys_ == keys ? sort_words_.data()
                                                       : nullptr;
  }

 private:
  /// One cached column gather; valid while epoch matches the batch's.
  struct ColumnCache {
    BindingId binding = kInvalidBinding;
    FieldId field = kInvalidField;  // kInvalidField = OID column
    uint64_t epoch = 0;
    bool usable = false;  // false: remembered as un-typeable this epoch
    ColumnView view;
    std::vector<int64_t> ints;
    std::vector<double> reals;
    std::vector<uint64_t> bits;
  };

  ColumnCache* FindOrAddColumn(BindingId binding, FieldId field, bool* fresh);

  int width_ = 0;
  size_t capacity_ = 0;
  size_t size_ = 0;
  std::vector<Slot> slots_;

  std::vector<uint16_t> sel_;
  size_t sel_size_ = 0;
  bool has_sel_ = false;

  /// Bumped on every row mutation (not on selection changes); column
  /// caches self-invalidate by comparing epochs. unique_ptr keeps returned
  /// ColumnView pointers stable while further columns are extracted.
  uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<ColumnCache>> columns_;

  /// Attached order words, valid while sort_epoch_ matches epoch_ (never,
  /// until the first AttachSortWords).
  std::vector<SortKey> sort_keys_;
  std::vector<uint64_t> sort_words_;
  uint64_t sort_epoch_ = ~uint64_t{0};
};

/// Evaluates a scalar expression against a row. Booleans are encoded as
/// Value::Int(0/1). Returns Internal if an attribute's component is not
/// loaded (a plan/property bug).
Result<Value> EvalExpr(const ScalarExpr& expr, TupleRef tuple,
                       const QueryContext& ctx);

/// Evaluates a predicate to a boolean.
Result<bool> EvalPredicate(const ScalarExprPtr& pred, TupleRef tuple,
                           const QueryContext& ctx);

/// Evaluates `conjuncts` against `tuple` in order, stopping at the first
/// that fails, and adds the number evaluated to `evals`.
Result<bool> EvalConjuncts(const std::vector<ScalarExprPtr>& conjuncts,
                           TupleRef tuple, const QueryContext& ctx,
                           size_t* evals);

/// A predicate specialized for tight-loop batch evaluation. Analyze()
/// recognizes conjunctions of `attr <cmp> const` conjuncts and compiles
/// them to direct slot/field comparisons against the stored Value —
/// no interpreter recursion, no Result/Value copies per conjunct. Any
/// other shape yields specialized() == false and callers fall back to
/// EvalConjuncts row by row.
///
/// Analysis walks the expression and allocates the step vector, which
/// costs about as much as interpreting the predicate once — it only pays
/// for itself amortized over a batch. kMinKernelRows is that break-even
/// point: below it (and in particular at batch size 1, the
/// tuple-at-a-time degeneration) interpretation is the faster plan and
/// callers should not analyze at all.
///
/// On top of the per-row path, a specialized program can run *columnar*:
/// each conjunct becomes one branchless compare-and-select pass over a
/// typed column, chained by refining the batch's selection vector
/// (ScanSelect for the fused-scan case, EvalBatchColumnar for batches).
/// Per-conjunct refinement does exactly the comparisons per row that the
/// short-circuiting row loop does, and every path adds them to `evals`
/// (simulated CPU's unit), so only wall-clock time differs.
class FilterProgram {
 public:
  static constexpr size_t kMinKernelRows = 8;
  /// Smallest batch (live rows) worth extracting typed column views for;
  /// smaller batches take the per-row path. Wall-clock tuning only —
  /// simulated charges don't depend on it.
  static constexpr size_t kMinExtractRows = 16;

  static FilterProgram Analyze(const ScalarExprPtr& pred);

  bool specialized() const { return specialized_; }

  /// True when every compiled step reads binding `b` — the condition for
  /// fusing the program into the scan that produces that binding.
  bool SingleBinding(BindingId b) const;

  /// Rebuilds the conjunction the compiled steps implement, preserving each
  /// source conjunct's operand orientation, so the result is structurally
  /// comparable (VerifyFusedConjuncts) with the predicate that was
  /// analyzed. Null when not specialized.
  ScalarExprPtr ReconstructedPredicate() const;

  /// Evaluates the compiled conjuncts directly against one loaded object —
  /// the scan-fusion path, where rows are filtered before they are ever
  /// materialized into a batch. No error case: the object is in hand.
  bool EvalSteps(const ObjectData& obj, size_t* evals) const;

  /// Requests the exact cache lines EvalSteps will read from `obj` — one
  /// per step field. Each object's field array is its own heap block, so
  /// at scan working-set sizes the first touch is a miss; issuing the
  /// request a dozen rows ahead takes it off the critical path.
  void PrefetchFields(const ObjectData& obj) const {
    for (const CmpStep& step : steps_) {
      __builtin_prefetch(&obj.value(step.field));
    }
  }

  /// Resolves each step's dense store projection (null entries where the
  /// field isn't projectable), aligned with the compiled steps — the input
  /// to Vectorizable/ScanSelect/EvalBatchColumnar. Empty if unspecialized.
  std::vector<const ColumnProjection*> StepProjections(
      ObjectStore* store, const QueryContext& ctx) const;

  /// True when every step can run as a columnar kernel over the given
  /// per-step store projections (projs[s] for steps_[s]): the projection
  /// exists and is homogeneous. The precondition of ScanSelect.
  bool Vectorizable(const std::vector<const ColumnProjection*>& projs) const;

  /// Fused-scan columnar selection: fills sel[0..count) with the ascending
  /// indices in [0, n) of `oids` whose projected field values pass every
  /// step, reading values straight out of the dense by-OID projections —
  /// rejected rows are never materialized, matching EvalSteps semantics
  /// bit for bit. Requires Vectorizable(projs).
  size_t ScanSelect(const Oid* oids, size_t n,
                    const std::vector<const ColumnProjection*>& projs,
                    uint16_t* sel, size_t* evals) const;

  /// Columnar selection over a batch: extracts each step's typed column
  /// (once per batch) and refines the batch's selection vector with one
  /// branchless kernel pass per conjunct. Returns false — batch untouched —
  /// when some column cannot be typed (caller falls back to the per-row
  /// path); errors exactly where the row loop would (an unloaded component
  /// among rows still alive when its conjunct runs).
  Result<bool> EvalBatchColumnar(
      TupleBatch* batch, const std::vector<const ColumnProjection*>& projs,
      const QueryContext& ctx, size_t* evals) const;

 private:
  struct CmpStep {
    BindingId binding = kInvalidBinding;
    FieldId field = kInvalidField;
    CmpOp op = CmpOp::kEq;
    const Value* constant = nullptr;  // points into the (shared) expr tree
    /// True when the source conjunct was written const-cmp-attr (op was
    /// reversed during analysis); ReconstructedPredicate restores it.
    bool reversed = false;
  };

  static bool StepPass(const CmpStep& step, const Value& l);

  bool specialized_ = false;
  std::vector<CmpStep> steps_;
};

}  // namespace oodb

#endif  // OODB_EXEC_TUPLE_H_
