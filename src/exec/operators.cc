#include "src/exec/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/exec/exchange.h"
#include "src/exec/sort_keys.h"
#include "src/trace/exec_profile.h"
#include "src/verify/verify.h"

namespace oodb {

namespace {

// ---------------------------------------------------------------------------
// File Scan
// ---------------------------------------------------------------------------
class FileScanExec : public ExecNode {
 public:
  /// A specialized `filter` (with `fused_pred` keeping its constants alive)
  /// runs inside the scan loop: objects are tested straight off the storage
  /// pointer and rejected rows are never materialized into the batch — no
  /// slot writes, no separate filter pass, no compaction. Sim-clock charges
  /// are the same as a scan feeding a FilterExec, so only wall time
  /// changes.
  FileScanExec(ExecEnv env, const PhysicalOp& op, bool partitioned,
               FilterProgram filter = FilterProgram(),
               ScalarExprPtr fused_pred = nullptr)
      : env_(env), op_(op), partitioned_(partitioned),
        filter_(std::move(filter)), fused_pred_(std::move(fused_pred)) {}

  Status Open() override {
    OODB_ASSIGN_OR_RETURN(members_, env_.store->CollectionMembers(op_.coll));
    // Contiguous chunk per worker: members are in page order, so chunking
    // preserves the long same-page runs ReadMany batches into single
    // buffer accesses (a round-robin stride would cut every run by the
    // worker count).
    pos_ = 0;
    end_ = members_->size();
    if (partitioned_) {
      size_t w = static_cast<size_t>(env_.partition_index);
      size_t k = static_cast<size_t>(env_.partition_count);
      pos_ = end_ * w / k;
      end_ = end_ * (w + 1) / k;
    }
    // Columnar lowering of the fused filter: each conjunct runs as one
    // branchless compare-and-select pass over the store's dense by-OID
    // projection of its field, so rejected rows cost one indexed load + one
    // compare instead of a per-object pointer chase through EvalSteps.
    // I/O is untouched — the batch still reads every member through
    // ReadMany, charging the same page runs — and survivors append exactly
    // as EvalSteps would keep them. A step without a homogeneous
    // projection keeps the whole filter on EvalSteps.
    if (filter_.specialized()) {
      projs_ = filter_.StepProjections(env_.store, *env_.ctx);
      vectorized_ = filter_.Vectorizable(projs_);
    }
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    const bool fused = filter_.specialized();
    double cpu = 0.0;
    size_t evals = 0;
    // Resolve OIDs in scan order with one batched storage call per chunk:
    // the chunk is a contiguous slice of the member vector (no gather
    // copy), and members are in page order, so ReadMany charges one buffer
    // access per page run instead of one per object. With a fused filter
    // the loop keeps refilling until the batch is full or the chunk ends,
    // so callers never see a pre-EOS empty batch.
    while (!out->full() && pos_ < end_) {
      size_t want = out->capacity() - out->size();
      size_t n = std::min(want, end_ - pos_);
      const Oid* oids = members_->data() + pos_;
      pos_ += n;
      scratch_objs_.resize(n);
      OODB_RETURN_IF_ERROR(
          env_.store->ReadMany(oids, n, scratch_objs_.data(), env_.stream));
      cpu += static_cast<double>(n) * env_.timing().cpu_scan_tuple_s;
      if (vectorized_) {
        scratch_sel_.resize(n);
        size_t cnt =
            filter_.ScanSelect(oids, n, projs_, scratch_sel_.data(), &evals);
        for (size_t k = 0; k < cnt; ++k) {
          size_t i = scratch_sel_[k];
          out->AppendRow().slot(op_.binding) = {oids[i], scratch_objs_[i]};
        }
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        if (fused) {
          // The batch gather exposes upcoming objects' pointers well in
          // advance; request row i+16's predicate fields now so their miss
          // resolves before its conjuncts run.
          if (i + 16 < n) filter_.PrefetchFields(*scratch_objs_[i + 16]);
          if (!filter_.EvalSteps(*scratch_objs_[i], &evals)) continue;
        }
        out->AppendRow().slot(op_.binding) = {oids[i], scratch_objs_[i]};
      }
    }
    env_.clock().cpu_s +=
        cpu + static_cast<double>(evals) * env_.timing().cpu_pred_s;
    return out->size();
  }

  void Close() override {}

 private:
  ExecEnv env_;
  PhysicalOp op_;
  bool partitioned_;
  FilterProgram filter_;
  ScalarExprPtr fused_pred_;
  const std::vector<Oid>* members_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  std::vector<const ObjectData*> scratch_objs_;
  // Columnar fused-filter state (every step projectable).
  bool vectorized_ = false;
  std::vector<const ColumnProjection*> projs_;
  std::vector<uint16_t> scratch_sel_;
};

// ---------------------------------------------------------------------------
// Index Scan
// ---------------------------------------------------------------------------
class IndexScanExec : public ExecNode {
 public:
  IndexScanExec(ExecEnv env, const PhysicalOp& op, bool partitioned)
      : env_(env), op_(op), partitioned_(partitioned),
        residual_(ScalarExpr::SplitConjuncts(op_.pred)) {}

  Status Open() override {
    OODB_ASSIGN_OR_RETURN(const StoredIndex* idx,
                          env_.store->FindIndex(op_.index_name));
    // Extract the comparison and key constant from the key conjunct,
    // normalizing to attr-op-constant orientation.
    const ScalarExpr& key = *op_.index_pred;
    const ScalarExprPtr& l = key.children()[0];
    const ScalarExprPtr& r = key.children()[1];
    bool const_on_left = l->kind() == ScalarExpr::Kind::kConst;
    const Value& v = const_on_left ? l->value() : r->value();
    CmpOp cmp = const_on_left ? ReverseCmp(key.cmp_op()) : key.cmp_op();
    matches_ = idx->Scan(cmp, v);
    pos_ = 0;
    end_ = matches_.size();
    if (partitioned_) {
      size_t w = static_cast<size_t>(env_.partition_index);
      size_t k = static_cast<size_t>(env_.partition_count);
      pos_ = end_ * w / k;
      end_ = end_ * (w + 1) / k;
    }
    // Charge leaf traversal for this scan's slice only: under Exchange each
    // of the k workers opens its own copy of the index scan, and charging
    // the full match count from every worker would bill the leaf CPU k
    // times for the same logical index read once the private clocks merge
    // at join. The per-worker probe (root descent) is real work each worker
    // does; the disjoint [pos_, end_) slices sum to exactly the serial leaf
    // charge.
    env_.clock().cpu_s += env_.timing().index_probe_s +
                          static_cast<double>(end_ - pos_) *
                              env_.timing().index_leaf_s;
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    size_t evals = 0;  // residual conjunct evaluations
    while (!out->full() && pos_ < end_) {
      Oid oid = matches_[pos_++];
      OODB_ASSIGN_OR_RETURN(const ObjectData* obj,
                            env_.store->Read(oid, env_.stream));
      TupleRow row = out->AppendRow();
      row.slot(op_.binding) = {oid, obj};
      OODB_ASSIGN_OR_RETURN(bool pass,
                            EvalConjuncts(residual_, row, *env_.ctx, &evals));
      if (!pass) out->Truncate(out->size() - 1);
    }
    env_.clock().cpu_s += static_cast<double>(evals) * env_.timing().cpu_pred_s;
    // A fully filtered batch must not read as EOS: keep pulling.
    if (out->empty() && pos_ < end_) return Next(out);
    return out->size();
  }

  void Close() override {}

 private:
  ExecEnv env_;
  PhysicalOp op_;
  bool partitioned_;
  std::vector<ScalarExprPtr> residual_;
  std::vector<Oid> matches_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Filter: pulls child batches into `out` and marks passing rows in the
// batch's selection vector.
// ---------------------------------------------------------------------------
class FilterExec : public ExecNode {
 public:
  FilterExec(ExecEnv env, const PhysicalOp& op, std::unique_ptr<ExecNode> child)
      : env_(env), op_(op), child_(std::move(child)),
        conjuncts_(ScalarExpr::SplitConjuncts(op_.pred)) {}

  Status Open() override { return child_->Open(); }

  /// Survivors are *marked* in the batch's selection vector instead of
  /// being moved — each conjunct is one branchless kernel pass over an
  /// extracted typed column, and physical compaction is deferred to
  /// whoever actually needs contiguous rows (pipeline breakers, Exchange).
  /// Falls back to per-row evaluation — still selection-marking, so
  /// downstream sees one shape — when the batch is too small to amortize
  /// extraction (FilterProgram::kMinExtractRows), when a column can't be
  /// typed, or when the predicate didn't specialize. Conjuncts run in plan
  /// order; each charges one predicate evaluation per row that reaches it.
  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    // Kernel path: batches big enough to amortize predicate analysis run
    // the compiled attr-cmp-const steps; small batches (and predicates the
    // analyzer can't specialize) stay on the interpreter.
    bool kernel = out->capacity() >= FilterProgram::kMinKernelRows;
    if (kernel && !analyzed_) {
      program_ = FilterProgram::Analyze(op_.pred);
      projs_ = program_.StepProjections(env_.store, *env_.ctx);
      analyzed_ = true;
    }
    kernel = kernel && program_.specialized();
    const double pred_s = env_.timing().cpu_pred_s;
    while (true) {
      OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(out));
      if (n == 0) return 0;
      size_t evals = 0;
      if (kernel && n >= FilterProgram::kMinExtractRows) {
        OODB_ASSIGN_OR_RETURN(bool ran, program_.EvalBatchColumnar(
                                            out, projs_, *env_.ctx, &evals));
        if (ran) {
          env_.clock().cpu_s += static_cast<double>(evals) * pred_s;
          if (out->active() > 0) return out->active();
          continue;  // all rows filtered: pull the next child batch
        }
      }
      // Per-row fallback, refining the selection in place (writes trail
      // reads, and surviving indices stay ascending).
      const bool had_sel = out->has_selection();
      uint16_t* sel = out->MutableSelection();
      size_t kept = 0;
      for (size_t k = 0; k < n; ++k) {
        size_t i = had_sel ? sel[k] : k;
        OODB_ASSIGN_OR_RETURN(bool pass, EvalConjuncts(conjuncts_, out->ref(i),
                                                       *env_.ctx, &evals));
        if (pass) sel[kept++] = static_cast<uint16_t>(i);
      }
      env_.clock().cpu_s += static_cast<double>(evals) * pred_s;
      out->SetSelection(kept);
      if (kept > 0) return kept;  // never a pre-EOS empty batch
    }
  }

  void Close() override { child_->Close(); }

 private:
  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
  std::vector<ScalarExprPtr> conjuncts_;
  FilterProgram program_;
  bool analyzed_ = false;
  // Per-step store projections, resolved with the program (null entries
  // where a field isn't projectable).
  std::vector<const ColumnProjection*> projs_;
};

// ---------------------------------------------------------------------------
// Hybrid Hash Join (build on the left input)
// ---------------------------------------------------------------------------

/// One side of one hash-join key conjunct, read in place where its shape
/// allows (`b.f` as the stored Value, `b` as the slot's ref into `scratch`);
/// any other shape is evaluated into `scratch`.
struct JoinKey {
  enum class Shape { kAttr, kSelf, kEval };

  explicit JoinKey(ScalarExprPtr e) : expr(std::move(e)) {
    if (expr->kind() == ScalarExpr::Kind::kAttr) shape = Shape::kAttr;
    if (expr->kind() == ScalarExpr::Kind::kSelf) shape = Shape::kSelf;
    if (shape != Shape::kEval) binding = expr->binding();
    if (shape == Shape::kAttr) field = expr->field();
  }

  /// kAttr or kSelf key of a row whose key component is loaded.
  const Value* InPlace(TupleRef t, Value* scratch) const {
    const Slot& s = t.slot(binding);
    if (shape == Shape::kAttr) return &s.obj->value(field);
    *scratch = Value::Int(s.ref);
    return scratch;
  }

  Result<const Value*> Read(TupleRef t, const QueryContext& ctx,
                            Value* scratch) const {
    if (shape == Shape::kEval) {
      OODB_ASSIGN_OR_RETURN(*scratch, EvalExpr(*expr, t, ctx));
      return scratch;
    }
    if (shape == Shape::kAttr && !t.slot(binding).loaded()) {
      return Status::Internal(
          "attribute read on component not present in memory: " +
          ctx.bindings.def(binding).name);
    }
    return InPlace(t, scratch);
  }

  ScalarExprPtr expr;
  Shape shape = Shape::kEval;
  BindingId binding = kInvalidBinding;
  FieldId field = kInvalidField;
  size_t eval_col = 0;  ///< build side, kEval: column in build_vals_
};

/// One open-addressing table serves every key kind and count. Build rows
/// live in one slot arena (zero per-row allocations); the table maps a key
/// tag to the head of a build_next_ chain kept in build order. If every
/// build row has one exact-integer key, the tag is that int64, a tag match
/// is a match, and the probe gathers typed key columns a batch at a time.
/// Otherwise the tag is the keys' combined Value::Hash and the drain checks
/// each chained row with Value::operator==, as EvalExpr would.
class HashJoinExec : public ExecNode {
 public:
  HashJoinExec(ExecEnv env, const PhysicalOp& op, BindingSet left_scope,
               std::unique_ptr<ExecNode> left, std::unique_ptr<ExecNode> right)
      : env_(env), left_(std::move(left)), right_(std::move(right)),
        probe_batch_(env_.num_bindings(), env_.batch_size) {
    // Split each equality conjunct into (build-side expr, probe-side expr).
    for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(op.pred)) {
      const ScalarExprPtr& l = c->children()[0];
      const ScalarExprPtr& r = c->children()[1];
      bool l_builds = left_scope.ContainsAll(l->ReferencedBindings());
      build_keys_.emplace_back(l_builds ? l : r);
      probe_keys_.emplace_back(l_builds ? r : l);
      if (build_keys_.back().shape == JoinKey::Shape::kEval) {
        build_keys_.back().eval_col = num_eval_++;
      }
    }
    probe_vals_.resize(probe_keys_.size());
    probe_scratch_.resize(probe_keys_.size());
  }

  Status Open() override {
    OODB_RETURN_IF_ERROR(left_->Open());
    BatchReader reader(left_.get(), env_.num_bindings(), env_.batch_size);
    build_width_ = static_cast<size_t>(env_.num_bindings());
    // Per build row: the keys' combined hash and, while every key so far is
    // one exactly-integral number, the int key.
    std::vector<uint64_t> hashes;
    std::vector<int64_t> ints;
    int_keys_ = build_keys_.size() == 1;
    Value scratch;
    TupleRef t;
    while (true) {
      OODB_ASSIGN_OR_RETURN(bool more, reader.NextRef(&t));
      if (!more) break;
      uint64_t h = 0;
      for (const JoinKey& key : build_keys_) {
        OODB_ASSIGN_OR_RETURN(const Value* v,
                              key.Read(t, *env_.ctx, &scratch));
        h = CombineHash(h, v->Hash());
        int64_t k = 0;
        int_keys_ = int_keys_ && ExactInt(*v, &k);
        if (int_keys_) ints.push_back(k);
        if (key.shape == JoinKey::Shape::kEval) build_vals_.push_back(*v);
      }
      hashes.push_back(h);
      env_.clock().cpu_s += env_.timing().cpu_hash_build_s;
      OODB_RETURN_IF_ERROR(env_.ChargeBuffered());
      build_slots_.insert(build_slots_.end(), t.slots, t.slots + build_width_);
    }
    left_->Close();
    const size_t nrows = hashes.size();
    size_t cap = 16;
    while (cap * 7 < nrows * 10 + 10) cap <<= 1;  // load <= ~0.7
    table_.assign(cap, Entry{});
    mask_ = cap - 1;
    build_next_.assign(nrows, -1);
    // Inserting in reverse build order makes each head-prepend leave the
    // chain in forward build order, so matches come out in build order.
    for (size_t r = nrows; r > 0; --r) {
      const size_t i = r - 1;
      const uint64_t tag = int_keys_ ? static_cast<uint64_t>(ints[i])
                                     : hashes[i];
      size_t pos = Mix(tag) & mask_;
      while (table_[pos].head != -1 && table_[pos].tag != tag) {
        pos = (pos + 1) & mask_;
      }
      build_next_[i] = table_[pos].head;
      table_[pos] = Entry{tag, static_cast<int32_t>(i)};
    }
    // Batch probe: an int table probed by a direct extractor (`b` or `b.f`)
    // gathers each refilled batch's key column and resolves every live
    // row's chain head up front.
    batch_probe_ = int_keys_ && probe_keys_[0].shape != JoinKey::Shape::kEval;
    if (batch_probe_ && probe_keys_[0].shape == JoinKey::Shape::kAttr) {
      const JoinKey& pk = probe_keys_[0];
      probe_proj_ = env_.store->Projection(
          env_.ctx->bindings.def(pk.binding).type, pk.field);
    }
    return right_->Open();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    double cpu = 0.0;
    const size_t out_width = static_cast<size_t>(out->width());
    while (!out->full()) {
      // Drain the current probe row's chain first — also the resume point
      // when the previous call filled up mid-chain. Arena rows span every
      // binding, so the CopyFrom overwrites the whole row and the AppendRow
      // clear is redundant.
      if (build_row_ >= 0) {
        while (build_row_ >= 0 && !out->full()) {
          const int32_t r = build_row_;
          build_row_ = build_next_[static_cast<size_t>(r)];
          if (!int_keys_ && !KeysMatch(r)) continue;
          TupleRef bt = ArenaRef(r);
          TupleRow row = bt.width >= out_width ? out->AppendRowRaw()
                                               : out->AppendRow();
          row.CopyFrom(bt);
          row.MergeFrom(probe_batch_.active_ref(probe_pos_));
        }
        if (build_row_ >= 0) break;  // out is full, chain not yet done
        ++probe_pos_;
      }
      // probe_pos_ walks the batch's *live* rows (the right child may hand
      // over a selection-marked batch).
      if (probe_pos_ >= probe_batch_.active()) {
        if (probe_eos_) break;
        OODB_ASSIGN_OR_RETURN(size_t n, right_->Next(&probe_batch_));
        probe_pos_ = 0;
        if (n == 0) {
          probe_eos_ = true;
          break;
        }
        Status resolved = batch_probe_ ? ResolveHeads() : Status::OK();
        if (!resolved.ok()) {
          env_.clock().cpu_s += cpu;
          return resolved;
        }
      }
      // March probe rows until one has a chain; a miss costs only the probe.
      const size_t pn = probe_batch_.active();
      while (probe_pos_ < pn) {
        cpu += env_.timing().cpu_hash_probe_s;
        if (have_heads_) {
          build_row_ = probe_heads_[probe_pos_];
        } else {
          Result<int32_t> head = Lookup(pn);
          if (!head.ok()) {
            env_.clock().cpu_s += cpu;
            return head.status();
          }
          build_row_ = *head;
        }
        if (build_row_ >= 0) break;
        ++probe_pos_;
      }
    }
    env_.clock().cpu_s += cpu;
    return out->size();
  }

  void Close() override { right_->Close(); }

 private:
  struct Entry {
    uint64_t tag = 0;
    int32_t head = -1;  ///< -1: empty
  };

  static uint64_t CombineHash(uint64_t h, size_t k) {
    return (h ^ k) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
  }

  static size_t Mix(uint64_t k) {
    uint64_t h = k * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  /// Ints and integral doubles below 2^53 in magnitude: one exact int64
  /// under Value::operator==, so int tags match exactly when it does.
  static bool ExactInt(const Value& v, int64_t* out) {
    constexpr int64_t kExact = int64_t{1} << 53;
    *out = v.i;
    if (v.kind == Value::Kind::kInt) return v.i > -kExact && v.i < kExact;
    return v.kind == Value::Kind::kDouble && ExactIntOfDouble(v.d, out);
  }

  static bool ExactIntOfDouble(double d, int64_t* out) {
    if (!(std::fabs(d) < 0x1p53) || d != std::trunc(d)) return false;  // NaN
    *out = static_cast<int64_t>(d);
    return true;
  }

  /// Head row of the chain tagged `tag`, or -1 on a miss.
  int32_t Find(uint64_t tag) const {
    size_t pos = Mix(tag) & mask_;
    while (table_[pos].head != -1) {
      if (table_[pos].tag == tag) return table_[pos].head;
      pos = (pos + 1) & mask_;
    }
    return -1;
  }

  /// Reads the live probe row at probe_pos_ into probe_vals_ and returns
  /// its chain head. An int table takes any int probe key as its tag (one
  /// beyond 2^53 matches no build key, as operator== says).
  Result<int32_t> Lookup(size_t pn) {
    if (probe_keys_.size() == 1 && probe_pos_ + 8 < pn &&
        probe_keys_[0].shape == JoinKey::Shape::kAttr) {
      // The key field lives in the probe object's own heap block: request
      // a row 8 ahead before reading this one.
      const JoinKey& k0 = probe_keys_[0];
      const Slot& s = probe_batch_.active_ref(probe_pos_ + 8).slot(k0.binding);
      if (s.obj != nullptr) __builtin_prefetch(&s.obj->value(k0.field));
    }
    TupleRef pr = probe_batch_.active_ref(probe_pos_);
    uint64_t h = 0;
    for (size_t k = 0; k < probe_keys_.size(); ++k) {
      OODB_ASSIGN_OR_RETURN(probe_vals_[k], probe_keys_[k].Read(
                                                pr, *env_.ctx,
                                                &probe_scratch_[k]));
      h = CombineHash(h, probe_vals_[k]->Hash());
    }
    if (!int_keys_) return Find(h);
    const Value& v = *probe_vals_[0];
    int64_t k = v.i;
    bool exact = v.kind == Value::Kind::kInt ||
                 (v.kind == Value::Kind::kDouble && ExactIntOfDouble(v.d, &k));
    return exact ? Find(static_cast<uint64_t>(k)) : -1;
  }

  /// Whether build row `r`'s keys equal probe_vals_ under Value::operator==.
  bool KeysMatch(int32_t r) {
    for (size_t k = 0; k < build_keys_.size(); ++k) {
      const JoinKey& key = build_keys_[k];
      const Value* b =
          key.shape == JoinKey::Shape::kEval
              ? &build_vals_[static_cast<size_t>(r) * num_eval_ + key.eval_col]
              : key.InPlace(ArenaRef(r), &build_scratch_);
      if (!(*b == *probe_vals_[k])) return false;
    }
    return true;
  }

  /// View of arena row `r` (always full binding width).
  TupleRef ArenaRef(int32_t r) const {
    return TupleRef(
        build_slots_.data() + static_cast<size_t>(r) * build_width_,
        build_width_);
  }

  /// Batch probe, once per refilled probe batch: gather the key column,
  /// then resolve every live row's chain head with later rows' table lines
  /// prefetched, overlapping the table's cache misses. Leaves have_heads_
  /// false (the per-row march takes over) when the column can't be typed,
  /// and fails on an unloaded key component among live rows, as the
  /// per-row march would.
  Status ResolveHeads() {
    have_heads_ = false;
    const JoinKey& pk = probe_keys_[0];
    const size_t pn = probe_batch_.active();
    const ColumnView* col =
        pk.shape == JoinKey::Shape::kAttr
            ? probe_batch_.ExtractFieldColumn(pk.binding, pk.field, probe_proj_)
            : probe_batch_.ExtractOidColumn(pk.binding);
    if (col == nullptr) return Status::OK();
    if (pk.shape == JoinKey::Shape::kAttr && !col->all_loaded) {
      for (size_t k = 0; k < pn; ++k) {
        if (!col->loaded_at(probe_batch_.active_index(k))) {
          return Status::Internal(
              "attribute read on component not present in memory: " +
              env_.ctx->bindings.def(pk.binding).name);
        }
      }
    }
    probe_heads_.resize(pn);
    if (!col->is_real) {
      const int64_t* keys = col->ints;
      for (size_t k = 0; k < pn; ++k) {
        if (k + 8 < pn) {
          uint64_t ahead = static_cast<uint64_t>(
              keys[probe_batch_.active_index(k + 8)]);
          __builtin_prefetch(&table_[Mix(ahead) & mask_]);
        }
        probe_heads_[k] =
            Find(static_cast<uint64_t>(keys[probe_batch_.active_index(k)]));
      }
    } else {
      const double* keys = col->reals;
      for (size_t k = 0; k < pn; ++k) {
        int64_t v = 0;
        probe_heads_[k] =
            ExactIntOfDouble(keys[probe_batch_.active_index(k)], &v)
                ? Find(static_cast<uint64_t>(v))
                : -1;
      }
    }
    have_heads_ = true;
    return Status::OK();
  }

  ExecEnv env_;
  std::unique_ptr<ExecNode> left_, right_;
  std::vector<JoinKey> build_keys_, probe_keys_;
  size_t num_eval_ = 0;  // build keys of shape kEval
  bool int_keys_ = false;
  std::vector<Entry> table_;
  size_t mask_ = 0;
  std::vector<Slot> build_slots_;
  size_t build_width_ = 0;
  std::vector<int32_t> build_next_;
  std::vector<Value> build_vals_;  // kEval build keys, num_eval_ per row
  TupleBatch probe_batch_;
  size_t probe_pos_ = 0;
  bool probe_eos_ = false;
  int32_t build_row_ = -1;  // drain cursor (arena chain)
  // The current probe row's keys: in place, or in probe_scratch_.
  std::vector<const Value*> probe_vals_;
  std::vector<Value> probe_scratch_;
  Value build_scratch_;
  // Batch probe: probe_heads_[k] is the chain head of the k-th live row.
  bool batch_probe_ = false;
  bool have_heads_ = false;
  const ColumnProjection* probe_proj_ = nullptr;
  std::vector<int32_t> probe_heads_;
};

// ---------------------------------------------------------------------------
// Assembly: windowed complex-object assembly. Pulls up to `window` input
// tuples, gathers their unresolved references, sorts them by physical page
// (the elevator pattern), fetches, and emits — step by step for
// multi-component assemblies.
// ---------------------------------------------------------------------------
class AssemblyExec : public ExecNode {
 public:
  AssemblyExec(ExecEnv env, const PhysicalOp& op,
               std::unique_ptr<ExecNode> child)
      : env_(env), op_(op), child_(std::move(child)) {
    window_ = op_.window > 0 ? op_.window : env_.timing().assembly_window;
  }

  Status Open() override {
    OODB_RETURN_IF_ERROR(child_->Open());
    reader_.emplace(child_.get(), env_.num_bindings(), env_.batch_size);
    if (op_.warm_start) OODB_RETURN_IF_ERROR(WarmStart());
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    while (!out->full()) {
      if (pos_ >= window_rows_.size()) {
        OODB_RETURN_IF_ERROR(FillWindow());
        if (window_rows_.empty()) break;
      }
      size_t i = pos_++;
      if (dropped_[i]) continue;  // dangling reference: no match
      out->AppendRow().CopyFrom(window_rows_[i]);
    }
    return out->size();
  }

  void Close() override { child_->Close(); }

 private:
  Status WarmStart() {
    for (const MatStep& step : op_.mats) {
      TypeId t = env_.ctx->bindings.def(step.target).type;
      if (!env_.store->catalog().HasExtent(t)) continue;
      OODB_ASSIGN_OR_RETURN(
          const std::vector<Oid>* members,
          env_.store->CollectionMembers(CollectionId::Extent(t)));
      for (Oid oid : *members) {
        OODB_ASSIGN_OR_RETURN(  // sequential scan
            const ObjectData* obj, env_.store->Read(oid, env_.stream));
        pinned_[oid] = obj;
        env_.clock().cpu_s += env_.timing().cpu_hash_build_s;
      }
    }
    return Status::OK();
  }

  Status FillWindow() {
    window_rows_.clear();
    pos_ = 0;
    TupleRef t;
    while (static_cast<int>(window_rows_.size()) < window_) {
      OODB_ASSIGN_OR_RETURN(bool more, reader_->NextRef(&t));
      if (!more) break;
      window_rows_.emplace_back(t);
    }
    dropped_.assign(window_rows_.size(), false);
    if (window_rows_.empty()) return Status::OK();

    for (const MatStep& step : op_.mats) {
      // Gather the references of this step across the window.
      std::vector<std::pair<PageId, std::pair<size_t, Oid>>> pending;
      for (size_t i = 0; i < window_rows_.size(); ++i) {
        if (dropped_[i]) continue;
        Oid target;
        if (step.field == kInvalidField) {
          target = window_rows_[i].slot(step.source).ref;
        } else {
          const Slot& src = window_rows_[i].slot(step.source);
          if (!src.loaded()) {
            return Status::Internal(
                "assembly source not present in memory: " +
                env_.ctx->bindings.def(step.source).name);
          }
          target = src.obj->ref(step.field);
        }
        env_.clock().cpu_s += env_.timing().cpu_deref_s;
        if (target == kInvalidOid || !env_.store->Exists(target)) {
          dropped_[i] = true;  // dangling reference: no match
          continue;
        }
        pending.push_back({env_.store->PageOf(target), {i, target}});
      }
      // Elevator: resolve in page order.
      std::sort(pending.begin(), pending.end());
      for (const auto& [page, work] : pending) {
        (void)page;
        auto [i, target] = work;
        auto pin = pinned_.find(target);
        const ObjectData* obj;
        if (pin != pinned_.end()) {
          obj = pin->second;
        } else {
          OODB_ASSIGN_OR_RETURN(obj, env_.store->Read(target, env_.stream));
        }
        window_rows_[i].slot(step.target) = {target, obj};
      }
    }
    return Status::OK();
  }

  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
  std::optional<BatchReader> reader_;
  int window_;
  std::vector<Tuple> window_rows_;
  std::vector<bool> dropped_;
  size_t pos_ = 0;
  std::unordered_map<Oid, const ObjectData*> pinned_;
};

// ---------------------------------------------------------------------------
// Pointer Join: dereferences in place over the child's batch, compacting
// away dangling references (no-match, matching Mat == Join semantics and
// the reference evaluator).
// ---------------------------------------------------------------------------
class PointerJoinExec : public ExecNode {
 public:
  PointerJoinExec(ExecEnv env, const PhysicalOp& op,
                  std::unique_ptr<ExecNode> child)
      : env_(env), op_(op), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    const MatStep& step = op_.mats[0];
    while (true) {
      OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(out));
      if (n == 0) return 0;
      env_.clock().cpu_s +=
          static_cast<double>(n) * env_.timing().cpu_deref_s;
      // The deref writes each surviving row's target slot anyway, so this
      // is a natural compaction point: live rows (under a selection-marked
      // batch, n counts only those) compact to the front as they resolve.
      const bool had_sel = out->has_selection();
      size_t kept = 0;
      for (size_t k = 0; k < n; ++k) {
        size_t i = had_sel ? out->active_index(k) : k;
        TupleRow row = out->row(i);
        Oid target;
        if (step.field == kInvalidField) {
          target = row.slot(step.source).ref;
        } else {
          const Slot& src = row.slot(step.source);
          if (!src.loaded()) {
            return Status::Internal("pointer join source not in memory");
          }
          target = src.obj->ref(step.field);
        }
        if (target == kInvalidOid || !env_.store->Exists(target)) continue;
        OODB_ASSIGN_OR_RETURN(const ObjectData* obj,
                              env_.store->Read(target, env_.stream));
        if (i != kept) out->CopyRow(kept, i);
        out->row(kept).slot(step.target) = {target, obj};
        ++kept;
      }
      out->ClearSelection();
      out->Truncate(kept);
      if (kept > 0) return kept;
    }
  }

  void Close() override { child_->Close(); }

 private:
  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
};

// ---------------------------------------------------------------------------
// Nested Loops: buffers the left input, loops it per right tuple.
// ---------------------------------------------------------------------------
class NestedLoopsExec : public ExecNode {
 public:
  NestedLoopsExec(ExecEnv env, const PhysicalOp& op,
                  std::unique_ptr<ExecNode> left,
                  std::unique_ptr<ExecNode> right)
      : env_(env), op_(op), left_(std::move(left)), right_(std::move(right)),
        right_batch_(env_.num_bindings(), env_.batch_size) {}

  Status Open() override {
    OODB_RETURN_IF_ERROR(left_->Open());
    BatchReader reader(left_.get(), env_.num_bindings(), env_.batch_size);
    TupleRef t;
    while (true) {
      OODB_ASSIGN_OR_RETURN(bool more, reader.NextRef(&t));
      if (!more) break;
      env_.clock().cpu_s += env_.timing().cpu_scan_tuple_s;
      OODB_RETURN_IF_ERROR(env_.ChargeBuffered());
      buffered_.emplace_back(t);
    }
    left_->Close();
    left_pos_ = buffered_.size();  // no right tuple yet
    return right_->Open();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    double cpu = 0.0;
    while (!out->full()) {
      if (!have_right_ || left_pos_ >= buffered_.size()) {
        if (have_right_) ++right_pos_;
        // right_pos_ walks the batch's live rows (selection-aware).
        if (right_pos_ >= right_batch_.active()) {
          if (right_eos_) break;
          have_right_ = false;
          OODB_ASSIGN_OR_RETURN(size_t n, right_->Next(&right_batch_));
          right_pos_ = 0;
          if (n == 0) {
            right_eos_ = true;
            break;
          }
        }
        have_right_ = true;
        left_pos_ = 0;
        continue;
      }
      // Speculative append: materialize the candidate, keep it if it passes.
      TupleRow row = out->AppendRow();
      row.CopyFrom(buffered_[left_pos_++]);
      row.MergeFrom(right_batch_.active_ref(right_pos_));
      cpu += env_.timing().cpu_pred_s;
      OODB_ASSIGN_OR_RETURN(bool pass, EvalPredicate(op_.pred, row, *env_.ctx));
      if (!pass) out->Truncate(out->size() - 1);
    }
    env_.clock().cpu_s += cpu;
    // All candidates failed but inputs remain: keep pulling.
    if (out->empty() && !right_eos_) return Next(out);
    return out->size();
  }

  void Close() override { right_->Close(); }

 private:
  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> left_, right_;
  std::vector<Tuple> buffered_;
  size_t left_pos_ = 0;
  TupleBatch right_batch_;
  size_t right_pos_ = 0;
  bool have_right_ = false;
  bool right_eos_ = false;
};

// ---------------------------------------------------------------------------
// Alg-Unnest
// ---------------------------------------------------------------------------
class UnnestExec : public ExecNode {
 public:
  UnnestExec(ExecEnv env, const PhysicalOp& op, std::unique_ptr<ExecNode> child)
      : env_(env), op_(op), child_(std::move(child)),
        in_batch_(env_.num_bindings(), env_.batch_size) {}

  Status Open() override { return child_->Open(); }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    double cpu = 0.0;
    while (!out->full()) {
      if (members_ != nullptr && member_pos_ < members_->size()) {
        TupleRow row = out->AppendRow();
        row.CopyFrom(in_batch_.active_ref(in_pos_));
        row.slot(op_.target) = {(*members_)[member_pos_++], nullptr};
        cpu += env_.timing().cpu_unnest_s;
        continue;
      }
      members_ = nullptr;
      if (have_in_) ++in_pos_;
      // in_pos_ walks the batch's live rows (selection-aware).
      if (in_pos_ >= in_batch_.active()) {
        if (in_eos_) break;
        have_in_ = false;
        OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(&in_batch_));
        in_pos_ = 0;
        if (n == 0) {
          in_eos_ = true;
          break;
        }
      }
      have_in_ = true;
      const Slot& src = in_batch_.active_ref(in_pos_).slot(op_.source);
      if (!src.loaded()) {
        return Status::Internal("unnest source not present in memory");
      }
      const TypeDef& td = env_.ctx->schema().type(src.obj->type);
      int slot = 0;
      for (FieldId f = 0; f < op_.field; ++f) {
        if (td.field(f).kind == FieldKind::kRefSet) ++slot;
      }
      members_ = &src.obj->ref_sets[slot];
      member_pos_ = 0;
    }
    env_.clock().cpu_s += cpu;
    // Every input row had an empty set but inputs remain: keep pulling.
    if (out->empty() && !in_eos_) return Next(out);
    return out->size();
  }

  void Close() override { child_->Close(); }

 private:
  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
  TupleBatch in_batch_;
  size_t in_pos_ = 0;
  bool have_in_ = false;
  bool in_eos_ = false;
  const std::vector<Oid>* members_ = nullptr;
  size_t member_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Alg-Project
// ---------------------------------------------------------------------------
class ProjectExec : public ExecNode {
 public:
  ProjectExec(ExecEnv env, const PhysicalOp& op,
              std::unique_ptr<ExecNode> child)
      : env_(env), op_(op), child_(std::move(child)) {
    // Batch kernel: when every emit expression is a plain attribute or
    // identity, validation reduces to "is the attribute's component
    // loaded" — no per-row expression interpretation or Value copies.
    specialized_ = true;
    for (const ScalarExprPtr& e : op_.emit) {
      if (e->kind() == ScalarExpr::Kind::kAttr) {
        check_loaded_.push_back(e->binding());
      } else if (e->kind() != ScalarExpr::Kind::kSelf) {
        specialized_ = false;
        check_loaded_.clear();
        break;
      }
    }
    std::sort(check_loaded_.begin(), check_loaded_.end());
    check_loaded_.erase(
        std::unique(check_loaded_.begin(), check_loaded_.end()),
        check_loaded_.end());
  }

  Status Open() override { return child_->Open(); }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(out));
    if (n == 0) return 0;
    env_.clock().cpu_s +=
        static_cast<double>(n) * env_.timing().cpu_scan_tuple_s;
    // Validate that every emitted attribute's component is loaded — the
    // executor evaluates the emit list from the final tuples (a Sort
    // enforcer may sit above), but the property violation should surface
    // here, at the operator that required the loads.
    // Validation walks live rows only; the selection (if any) passes
    // through untouched — projection changes no slots.
    if (specialized_ && out->capacity() >= FilterProgram::kMinKernelRows) {
      for (size_t i = 0; i < n; ++i) {
        TupleRef r = out->active_ref(i);
        for (BindingId b : check_loaded_) {
          if (!r.slot(b).loaded()) {
            return Status::Internal(
                "attribute read on component not present in memory: " +
                env_.ctx->bindings.def(b).name);
          }
        }
      }
      return n;
    }
    for (size_t i = 0; i < n; ++i) {
      for (const ScalarExprPtr& e : op_.emit) {
        OODB_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*e, out->active_ref(i), *env_.ctx));
        (void)v;
      }
    }
    return n;
  }

  void Close() override { child_->Close(); }

 private:
  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
  bool specialized_ = false;
  std::vector<BindingId> check_loaded_;
};

// ---------------------------------------------------------------------------
// Buffered rows of an order operator: a flat Slot arena of fixed-width rows
// plus the delivery order over them (row indices). Sort and TopK buffer here
// and emit by gathering through the order.
// ---------------------------------------------------------------------------
class RowArena {
 public:
  explicit RowArena(int width) : width_(static_cast<size_t>(width)) {}

  size_t size() const { return count_; }
  size_t width() const { return width_; }
  const Slot* row(size_t i) const { return slots_.data() + i * width_; }

  /// Appends a copy of `row`; returns its index.
  uint32_t Append(TupleRef row) {
    slots_.insert(slots_.end(), row.slots, row.slots + width_);
    return static_cast<uint32_t>(count_++);
  }
  /// Overwrites row `i` with `row`.
  void Assign(size_t i, TupleRef row) {
    std::copy(row.slots, row.slots + width_, slots_.data() + i * width_);
  }

  /// Fills `out` with the next rows of `order`, starting at *pos.
  size_t Emit(TupleBatch* out, const std::vector<uint32_t>& order,
              size_t* pos) const {
    while (!out->full() && *pos < order.size()) {
      out->AppendRowRaw().CopyFrom(TupleRef(row(order[(*pos)++]), width_));
    }
    return out->size();
  }

 private:
  size_t width_;
  size_t count_ = 0;
  std::vector<Slot> slots_;
};

/// True when an order operator on `op`'s keys feeds a merging Exchange that
/// merges on the same order: it attaches its output's order words.
bool FeedsMergeOn(const ExecEnv& env, const PhysicalOp& op) {
  return env.merge_sort != nullptr && env.merge_sort->keys == op.sort.keys;
}

/// Attaches to `out`, just filled by RowArena::Emit from `order`, its rows'
/// order words under `spec`; `keys` holds spec.size() words per arena row.
void AttachEmittedWords(TupleBatch* out, const std::vector<SortKey>& spec,
                        const uint64_t* keys, const uint32_t* order) {
  const size_t nw = spec.size();
  uint64_t* dst = out->AttachSortWords(spec);
  for (size_t i = 0; i < out->size(); ++i) {
    std::copy_n(keys + order[i] * nw, nw, dst + i * nw);
  }
}

// ---------------------------------------------------------------------------
// Sort (enforcer, extension): multi-key stable sort with per-key direction.
// Keys are encoded a batch at a time into fixed-width order words
// (SortKeyCodec) beside a flat copy of the rows, and the sort orders row
// indices — ties broken by input position, so the result is the stable
// sort. When op.sort_prefix > 0 the child already delivers the first
// `prefix` keys in order (a partial sort): each equal-prefix run is sorted
// on the remaining keys as it closes, so simulated CPU scales with
// n*log(run) instead of n*log(n) — the saving PartialSortCost anticipates.
// Flushed runs are counted on the operator's profile (sort_runs) for
// EXPLAIN ANALYZE. Under a merging Exchange on the same order, each emitted
// batch carries its rows' key words (FeedsMergeOn).
// ---------------------------------------------------------------------------
class SortExec : public ExecNode {
 public:
  SortExec(ExecEnv env, const PhysicalOp& op, std::unique_ptr<ExecNode> child,
           OpProfile* prof = nullptr)
      : env_(env),
        op_(op),
        child_(std::move(child)),
        prof_(prof),
        codec_(op_.sort.keys, env_.store, env_.ctx),
        rows_(env_.num_bindings()),
        attach_words_(FeedsMergeOn(env_, op_)) {}

  Status Open() override {
    OODB_RETURN_IF_ERROR(child_->Open());
    const size_t nw = codec_.words();
    const size_t prefix =
        std::min(nw, static_cast<size_t>(std::max(op_.sort_prefix, 0)));
    TupleBatch batch(env_.num_bindings(), env_.batch_size);
    size_t run_begin = 0;
    while (true) {
      OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(&batch));
      if (n == 0) break;
      const size_t live = batch.active();
      const size_t base = rows_.size();
      keys_.resize((base + live) * nw);
      uint64_t* dst = keys_.data() + base * nw;
      const SortKeyCodec::Encoded enc = codec_.Encode(&batch, dst);
      if (enc.words != dst) std::copy_n(enc.words, enc.good * nw, dst);
      for (size_t i = 0; i < live; ++i) {
        if (i == enc.good) return codec_.KeyError(batch.active_ref(i));
        env_.clock().cpu_s += env_.timing().cpu_hash_probe_s;
        OODB_RETURN_IF_ERROR(env_.ChargeBuffered());
        const size_t r = base + i;
        TupleRef t = batch.active_ref(i);
        if (prefix > 0 && r > run_begin &&
            codec_.Compare(Key(run_begin), rows_.row(run_begin), Key(r),
                           t.slots, 0, prefix) != 0) {
          FlushRun(run_begin, r, prefix);
          run_begin = r;
        }
        rows_.Append(t);
      }
    }
    child_->Close();
    FlushRun(run_begin, rows_.size(), prefix);
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    const size_t first = pos_;
    rows_.Emit(out, order_, &pos_);
    if (attach_words_) {
      AttachEmittedWords(out, op_.sort.keys, keys_.data(),
                         order_.data() + first);
    }
    return out->size();
  }

  void Close() override {}

 private:
  const uint64_t* Key(size_t r) const {
    return keys_.data() + r * codec_.words();
  }

  /// Sorts rows [begin, end) — one equal-prefix run, or with prefix == 0
  /// the whole input — on keys [prefix, nkeys) and appends them to the
  /// delivery order.
  void FlushRun(size_t begin, size_t end, size_t prefix) {
    if (begin == end) return;
    order_.resize(end);
    for (size_t r = begin; r < end; ++r) order_[r] = static_cast<uint32_t>(r);
    codec_.SortRows(keys_.data(), rows_.row(0), rows_.width(), prefix,
                    order_.data() + begin, order_.data() + end);
    // Comparison-count model: n*ceil(log2(run)) probes, so a partial sort's
    // shorter runs genuinely cost less simulated time than one global sort.
    const size_t n = end - begin;
    env_.clock().cpu_s += static_cast<double>(n) * LogCeil(n) *
                          env_.timing().cpu_hash_probe_s;
    if (prefix > 0 && prof_ != nullptr) ++prof_->sort_runs;
  }

  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
  OpProfile* prof_;
  SortKeyCodec codec_;
  RowArena rows_;
  std::vector<uint64_t> keys_;  ///< codec_.words() per buffered row
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
  const bool attach_words_;  ///< feeds a merge on op_.sort
};

// ---------------------------------------------------------------------------
// TopK (enforcer, extension): ORDER BY ... LIMIT k without a full sort.
// Three regimes, chosen by the optimizer through op.sort_prefix:
//   - sort_prefix == nkeys (or no sort keys at all): the child already
//     delivers the full order — stream the first k rows and stop pulling,
//     so a limited query never drains its input.
//   - otherwise: a bounded max-heap of k entries — each an encoded key
//     (SortKeyCodec), an insertion sequence number and a row of the arena;
//     the heap root is the worst survivor, and an incoming row replaces it
//     only when strictly better, decided by one encoded compare against the
//     root. Ties keep the earlier row (sequence numbers make the result the
//     stable top-k, matching what stable_sort + truncate produces). Under a
//     merging Exchange on the same order, each emitted batch carries its
//     rows' key words, as Sort's do.
// ---------------------------------------------------------------------------
class TopKExec : public ExecNode {
 public:
  TopKExec(ExecEnv env, const PhysicalOp& op, std::unique_ptr<ExecNode> child,
           OpProfile* prof = nullptr)
      : env_(env),
        op_(op),
        child_(std::move(child)),
        prof_(prof),
        codec_(op_.sort.keys, env_.store, env_.ctx),
        rows_(env_.num_bindings()) {}

  Status Open() override {
    OODB_RETURN_IF_ERROR(child_->Open());
    const size_t nkeys = codec_.words();
    const size_t k =
        static_cast<size_t>(std::max<int64_t>(op_.limit, 0));
    // exec.topk == false: the oracle strategy — buffer everything (the
    // absorb cap never evicts), stable-sort, truncate below. Identical
    // rows, naive charges.
    const bool oracle = !env_.topk;
    const bool streaming =
        !oracle &&
        (nkeys == 0 || static_cast<size_t>(op_.sort_prefix) >= nkeys);
    const size_t cap = oracle ? std::numeric_limits<size_t>::max() : k;
    if (k == 0) return Status::OK();  // LIMIT 0: empty result, no pulls
    TupleBatch batch(env_.num_bindings(), env_.batch_size);
    bool done = false;
    while (!done) {
      OODB_ASSIGN_OR_RETURN(size_t n, child_->Next(&batch));
      if (n == 0) break;
      if (streaming) {
        for (size_t i = 0; i < batch.active() && !done; ++i) {
          env_.clock().cpu_s += env_.timing().cpu_pred_s;
          OODB_RETURN_IF_ERROR(env_.ChargeBuffered());
          order_.push_back(rows_.Append(batch.active_ref(i)));
          done = order_.size() >= k;
        }
        continue;
      }
      OODB_RETURN_IF_ERROR(AbsorbBatch(&batch, cap));
    }
    child_->Close();
    if (!streaming) {
      // Heap order is "worst first"; the result is ascending sort order
      // with insertion sequence breaking ties (stability).
      std::sort(heap_.begin(), heap_.end(),
                [this](uint32_t a, uint32_t b) { return Worse(b, a); });
      if (heap_.size() > k) heap_.resize(k);
      order_ = std::move(heap_);
      attach_words_ = FeedsMergeOn(env_, op_);
    }
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    const size_t first = pos_;
    rows_.Emit(out, order_, &pos_);
    if (attach_words_) {
      AttachEmittedWords(out, op_.sort.keys, keys_.data(),
                         order_.data() + first);
    }
    return out->size();
  }

  void Close() override {}

 private:
  const uint64_t* Key(uint32_t e) const {
    return keys_.data() + e * codec_.words();
  }

  /// True when entry `a` is worse than `b` (comes later in sort order, or
  /// equal but inserted later) — the max-heap ordering: the root is the
  /// worst survivor, the first to be evicted.
  bool Worse(uint32_t a, uint32_t b) const {
    int c = codec_.Compare(Key(a), rows_.row(a), Key(b), rows_.row(b));
    if (c != 0) return c > 0;
    return seq_of_[a] > seq_of_[b];
  }

  Status AbsorbBatch(TupleBatch* batch, size_t k) {
    const size_t nw = codec_.words();
    const size_t live = batch->active();
    batch_keys_.resize(live * nw);
    const SortKeyCodec::Encoded enc = codec_.Encode(batch, batch_keys_.data());
    // One heap operation: ~log2(k+1) comparisons.
    const double log_k = LogCeil(k + 1);
    auto worse = [this](uint32_t a, uint32_t b) {
      return Worse(b, a);  // std heap: "less" puts the max at the root
    };
    for (size_t i = 0; i < live; ++i) {
      env_.clock().cpu_s += env_.timing().cpu_pred_s;
      if (i == enc.good) return codec_.KeyError(batch->active_ref(i));
      const uint64_t* key = enc.words + i * nw;
      TupleRef t = batch->active_ref(i);
      const int64_t seq = seq_++;
      const bool full = heap_.size() >= k;
      // A row ties the root at best (its sequence number is the newest):
      // it enters only when its key is strictly better.
      if (full && codec_.Compare(key, t.slots, Key(heap_.front()),
                                 rows_.row(heap_.front())) >= 0) {
        continue;
      }
      env_.clock().cpu_s += log_k * env_.timing().cpu_hash_probe_s;
      uint32_t e;
      if (full) {
        std::pop_heap(heap_.begin(), heap_.end(), worse);
        e = heap_.back();
        heap_.pop_back();
        rows_.Assign(e, t);
        std::copy(key, key + nw, keys_.begin() + e * nw);
        seq_of_[e] = seq;
      } else {
        OODB_RETURN_IF_ERROR(env_.ChargeBuffered());
        e = rows_.Append(t);
        keys_.insert(keys_.end(), key, key + nw);
        seq_of_.push_back(seq);
      }
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), worse);
      if (prof_ != nullptr) {
        prof_->topk_heap =
            std::max(prof_->topk_heap, static_cast<int64_t>(heap_.size()));
      }
    }
    return Status::OK();
  }

  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> child_;
  OpProfile* prof_;
  SortKeyCodec codec_;
  /// Heap entries (and, streaming, the first k rows): entry e is row e of
  /// the arena, keys_[e*nkeys...] and seq_of_[e].
  RowArena rows_;
  std::vector<uint64_t> keys_;
  std::vector<int64_t> seq_of_;
  std::vector<uint64_t> batch_keys_;  ///< the absorbed batch's encoded keys
  std::vector<uint32_t> heap_;
  int64_t seq_ = 0;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
  bool attach_words_ = false;  ///< heap regime feeding a merge on op_.sort
};

// ---------------------------------------------------------------------------
// Merge Join (extension): inputs sorted on the join attributes. Streams
// both children through tuple cursors; run-replay state survives across
// output batches.
// ---------------------------------------------------------------------------
class MergeJoinExec : public ExecNode {
 public:
  MergeJoinExec(ExecEnv env, const PhysicalOp& op, BindingSet left_scope,
                std::unique_ptr<ExecNode> left, std::unique_ptr<ExecNode> right)
      : env_(env), op_(op), left_(std::move(left)), right_(std::move(right)) {
    ScalarExprPtr c = ScalarExpr::SplitConjuncts(op_.pred)[0];
    ScalarExprPtr l = c->children()[0];
    ScalarExprPtr r = c->children()[1];
    if (left_scope.ContainsAll(l->ReferencedBindings())) {
      left_key_ = l;
      right_key_ = r;
    } else {
      left_key_ = r;
      right_key_ = l;
    }
  }

  Status Open() override {
    OODB_RETURN_IF_ERROR(left_->Open());
    OODB_RETURN_IF_ERROR(right_->Open());
    left_reader_.emplace(left_.get(), env_.num_bindings(), env_.batch_size);
    right_reader_.emplace(right_.get(), env_.num_bindings(), env_.batch_size);
    OODB_ASSIGN_OR_RETURN(left_valid_, left_reader_->Next(&left_tuple_));
    OODB_ASSIGN_OR_RETURN(right_valid_, right_reader_->Next(&right_tuple_));
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    while (!out->full()) {
      if (run_pos_ < run_.size()) {
        TupleRow row = out->AppendRow();
        row.CopyFrom(run_[run_pos_++]);
        row.MergeFrom(left_tuple_for_run_);
        if (run_pos_ >= run_.size()) {
          // Advance left; if its key equals the run key, replay the run.
          OODB_ASSIGN_OR_RETURN(left_valid_, left_reader_->Next(&left_tuple_));
          if (left_valid_) {
            OODB_ASSIGN_OR_RETURN(Value lk,
                                  EvalExpr(*left_key_, left_tuple_, *env_.ctx));
            if (lk == run_key_) {
              left_tuple_for_run_ = left_tuple_;
              run_pos_ = 0;
            }
          }
        }
        continue;
      }
      if (!left_valid_ || !right_valid_) break;
      OODB_ASSIGN_OR_RETURN(Value lk,
                            EvalExpr(*left_key_, left_tuple_, *env_.ctx));
      OODB_ASSIGN_OR_RETURN(Value rk,
                            EvalExpr(*right_key_, right_tuple_, *env_.ctx));
      env_.clock().cpu_s += env_.timing().cpu_hash_probe_s;
      int cmp = lk.Compare(rk);
      if (cmp < 0) {
        OODB_ASSIGN_OR_RETURN(left_valid_, left_reader_->Next(&left_tuple_));
      } else if (cmp > 0) {
        OODB_ASSIGN_OR_RETURN(right_valid_, right_reader_->Next(&right_tuple_));
      } else {
        // Collect the right-side run with this key.
        run_.clear();
        run_pos_ = 0;
        run_key_ = rk;
        left_tuple_for_run_ = left_tuple_;
        while (right_valid_) {
          OODB_ASSIGN_OR_RETURN(
              Value k, EvalExpr(*right_key_, right_tuple_, *env_.ctx));
          if (!(k == run_key_)) break;
          run_.push_back(right_tuple_);
          OODB_ASSIGN_OR_RETURN(right_valid_,
                                right_reader_->Next(&right_tuple_));
        }
      }
    }
    return out->size();
  }

  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  ExecEnv env_;
  PhysicalOp op_;
  std::unique_ptr<ExecNode> left_, right_;
  std::optional<BatchReader> left_reader_, right_reader_;
  ScalarExprPtr left_key_, right_key_;
  Tuple left_tuple_, right_tuple_, left_tuple_for_run_;
  bool left_valid_ = false, right_valid_ = false;
  std::vector<Tuple> run_;
  size_t run_pos_ = 0;
  Value run_key_;
};

// ---------------------------------------------------------------------------
// Stats decorator (EXPLAIN ANALYZE): transparently wraps any operator and
// records rows/batches plus simulated-time deltas into the ExecEnv's
// profile, keyed by the plan node the operator was built from. Counters are
// inclusive of the subtree (the deltas span the inner call, children
// included, and an Exchange's span covers the worker streams it merges);
// the wrapped profile and the pipeline's stream are both thread-private, so
// recording is plain loads and stores.
// ---------------------------------------------------------------------------
class StatsExec : public ExecNode {
 public:
  StatsExec(const ExecEnv& env, const PlanNode* node,
            std::unique_ptr<ExecNode> inner)
      : env_(env), inner_(std::move(inner)),
        prof_(env.profile->Register(node)) {}

  Status Open() override {
    // Blocking operators (hash build, sort) do their heavy work in
    // Open — span it so their time lands on the right node.
    SimStream before = *env_.stream;
    Status status = inner_->Open();
    Record(before);
    return status;
  }

  Result<size_t> Next(TupleBatch* out) override {
    SimStream before = *env_.stream;
    Result<size_t> n = inner_->Next(out);
    Record(before);
    if (n.ok() && *n > 0) {
      prof_->rows += static_cast<int64_t>(*n);
      // Physical rows in the produced batch: equals `rows` for compact
      // batches; exceeds it when the operator marked survivors in a
      // selection vector. The ratio is the operator's selection density.
      prof_->phys_rows += static_cast<int64_t>(out->size());
      ++prof_->batches;
    }
    return n;
  }

  void Close() override {
    // An Exchange cut loose early joins (and merges) its workers here.
    SimStream before = *env_.stream;
    inner_->Close();
    Record(before);
  }

 private:
  void Record(const SimStream& before) {
    const SimStream& now = *env_.stream;
    prof_->cpu_s += now.clock.cpu_s - before.clock.cpu_s;
    prof_->io_s += now.clock.io_s - before.clock.io_s;
    prof_->pages_read += now.reads() - before.reads();
    prof_->buffer_hits += now.buffer_hits - before.buffer_hits;
  }

  ExecEnv env_;
  std::unique_ptr<ExecNode> inner_;
  OpProfile* prof_;
};

// ---------------------------------------------------------------------------
// Drift-check decorator (adaptive re-optimization): wraps the input of a
// pipeline breaker and compares the running actual row count against the
// optimizer's estimate for that input. Underestimates fire the moment the
// count crosses est * threshold — before the breaker buffers yet more rows
// and before the plan's unexecuted suffix runs. Overestimates fire at end
// of stream (for a hash-join build or sort, that is build completion, the
// last point where switching strategy upstream is still free). Either way
// the query fails with kPlanDrift, which is deliberately not in
// IsRetryableExecFault: re-running the same plan would hit the same drift,
// so the Session replan path — not the retry ladder's same-plan rungs —
// must handle it by re-optimizing with measured cardinality feedback.
// ---------------------------------------------------------------------------
class DriftCheckExec : public ExecNode {
 public:
  /// Both-sides row floor: a drift check never fires unless the larger of
  /// estimate and actual is at least this many rows. Re-planning a query
  /// whose worst absolute error is a handful of rows cannot pay for the
  /// second optimizer pass.
  static constexpr int64_t kMinDriftRows = 32;

  DriftCheckExec(const ExecEnv& env, const PlanNode* input,
                 const char* breaker, std::unique_ptr<ExecNode> inner)
      : env_(env), input_(input), breaker_(breaker), inner_(std::move(inner)) {}

  Status Open() override { return inner_->Open(); }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_ASSIGN_OR_RETURN(size_t n, inner_->Next(out));
    const double est = std::max(1.0, input_->logical.card);
    const double threshold = env_.replan_drift_threshold;
    if (n == 0) {
      double act = std::max<double>(1.0, static_cast<double>(rows_));
      if (est / act > threshold &&
          est >= static_cast<double>(kMinDriftRows)) {
        return Drift(est, "over");
      }
      return n;
    }
    rows_ += static_cast<int64_t>(n);
    if (static_cast<double>(rows_) > est * threshold &&
        rows_ >= kMinDriftRows) {
      return Drift(est, "under");
    }
    return n;
  }

  void Close() override { inner_->Close(); }

 private:
  Status Drift(double est, const char* direction) const {
    std::string msg = breaker_;
    msg += " input ";
    msg += direction;
    msg += "-estimated: est ";
    msg += std::to_string(static_cast<int64_t>(est + 0.5));
    msg += " rows, saw ";
    msg += std::to_string(rows_);
    return Status::PlanDrift(std::move(msg));
  }

  ExecEnv env_;
  const PlanNode* input_;
  const char* breaker_;
  std::unique_ptr<ExecNode> inner_;
  int64_t rows_ = 0;
};

/// Wraps a pipeline breaker's input in a drift check when mid-query
/// re-planning is armed. Suppressed inside Exchange workers: a partition's
/// row count cannot be compared against the whole-input estimate.
std::unique_ptr<ExecNode> MaybeDriftCheck(const ExecEnv& env,
                                          const PlanNode* input,
                                          const char* breaker,
                                          std::unique_ptr<ExecNode> inner) {
  if (env.replan_drift_threshold <= 0.0 || env.partition_count > 1) {
    return inner;
  }
  return std::make_unique<DriftCheckExec>(env, input, breaker,
                                          std::move(inner));
}

/// The real operator factory. Recursive construction goes through
/// BuildExecNode so children get their own stats decorators when profiling.
Result<std::unique_ptr<ExecNode>> BuildExecNodeImpl(const ExecEnv& env,
                                                    const PlanNode& plan) {
  // Running consecutive Filters as separate operators costs a full batch
  // pass (and a virtual Next per batch) per Filter. Execution collapses a
  // chain of them into one combined conjunction — the lowest Filter's
  // conjuncts first, the order the stack evaluates them in — then either
  // fuses it into the file scan below (when the batch kernel applies and
  // every conjunct reads the scan's binding) or runs it as a single
  // FilterExec pass. The chain's input is built from the first non-Filter
  // descendant, so a partition_node match on the scan below still fires.
  if (plan.op.kind == PhysOpKind::kFilter && plan.op.pred != nullptr) {
    std::vector<ScalarExprPtr> chain_preds;
    const PlanNode* node = &plan;
    while (node->op.kind == PhysOpKind::kFilter && node->op.pred != nullptr) {
      chain_preds.push_back(node->op.pred);
      node = node->children[0].get();
    }
    std::vector<ScalarExprPtr> conjuncts;
    for (auto it = chain_preds.rbegin(); it != chain_preds.rend(); ++it) {
      std::vector<ScalarExprPtr> cs = ScalarExpr::SplitConjuncts(*it);
      conjuncts.insert(conjuncts.end(), cs.begin(), cs.end());
    }
    ScalarExprPtr combined = ScalarExpr::CombineConjuncts(std::move(conjuncts));
    // The fusion must preserve the chain's conjunct multiset exactly: a
    // dropped or rewritten term silently changes query results.
    OODB_RETURN_IF_ERROR(VerifyFusedConjuncts(chain_preds, combined));
    if (node->op.kind == PhysOpKind::kFileScan &&
        env.batch_size >= FilterProgram::kMinKernelRows) {
      FilterProgram prog = FilterProgram::Analyze(combined);
      if (prog.specialized() && prog.SingleBinding(node->op.binding)) {
        // Second leg of the fusion invariant: the *compiled* steps (which
        // the kernels and EvalSteps actually execute — possibly with
        // operands re-oriented during analysis) must still reconstruct the
        // chain's conjunct multiset. Catches compile-side drift the
        // combined-predicate check above cannot see.
        OODB_RETURN_IF_ERROR(
            VerifyFusedConjuncts(chain_preds, prog.ReconstructedPredicate()));
        bool part = env.partition_node == node && env.partition_count > 1;
        return std::unique_ptr<ExecNode>(new FileScanExec(
            env, node->op, part, std::move(prog), combined));
      }
    }
    OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> input,
                          BuildExecNode(env, *node));
    PhysicalOp merged = plan.op;
    merged.pred = combined;
    return std::unique_ptr<ExecNode>(
        new FilterExec(env, merged, std::move(input)));
  }
  std::vector<std::unique_ptr<ExecNode>> children;
  for (const PlanNodePtr& c : plan.children) {
    OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                          BuildExecNode(env, *c));
    children.push_back(std::move(node));
  }
  bool partitioned = env.partition_node == &plan && env.partition_count > 1;
  switch (plan.op.kind) {
    case PhysOpKind::kFileScan:
      return std::unique_ptr<ExecNode>(
          new FileScanExec(env, plan.op, partitioned));
    case PhysOpKind::kIndexScan:
      return std::unique_ptr<ExecNode>(
          new IndexScanExec(env, plan.op, partitioned));
    case PhysOpKind::kFilter:
      return std::unique_ptr<ExecNode>(
          new FilterExec(env, plan.op, std::move(children[0])));
    case PhysOpKind::kHybridHashJoin:
      return std::unique_ptr<ExecNode>(new HashJoinExec(
          env, plan.op, plan.children[0]->logical.scope,
          MaybeDriftCheck(env, plan.children[0].get(), "hash-join build",
                          std::move(children[0])),
          std::move(children[1])));
    case PhysOpKind::kPointerJoin:
      return std::unique_ptr<ExecNode>(
          new PointerJoinExec(env, plan.op, std::move(children[0])));
    case PhysOpKind::kAssembly:
      return std::unique_ptr<ExecNode>(
          new AssemblyExec(env, plan.op, std::move(children[0])));
    case PhysOpKind::kAlgProject:
      return std::unique_ptr<ExecNode>(
          new ProjectExec(env, plan.op, std::move(children[0])));
    case PhysOpKind::kAlgUnnest:
      return std::unique_ptr<ExecNode>(
          new UnnestExec(env, plan.op, std::move(children[0])));
    case PhysOpKind::kSort:
      // The operator shares the decorator's OpProfile slot (Register is
      // idempotent per node) to record its run/heap counters.
      return std::unique_ptr<ExecNode>(new SortExec(
          env, plan.op,
          MaybeDriftCheck(env, plan.children[0].get(), "sort",
                          std::move(children[0])),
          env.profile != nullptr ? env.profile->Register(&plan) : nullptr));
    case PhysOpKind::kTopK:
      return std::unique_ptr<ExecNode>(new TopKExec(
          env, plan.op,
          MaybeDriftCheck(env, plan.children[0].get(), "top-k",
                          std::move(children[0])),
          env.profile != nullptr ? env.profile->Register(&plan) : nullptr));
    case PhysOpKind::kMergeJoin:
      return std::unique_ptr<ExecNode>(new MergeJoinExec(
          env, plan.op, plan.children[0]->logical.scope, std::move(children[0]),
          std::move(children[1])));
    case PhysOpKind::kNestedLoops:
      return std::unique_ptr<ExecNode>(new NestedLoopsExec(
          env, plan.op, std::move(children[0]), std::move(children[1])));
    case PhysOpKind::kExchange:
      return MakeExchangeExec(env, plan);
  }
  return Status::Unimplemented("no executor for operator");
}

}  // namespace

Result<std::unique_ptr<ExecNode>> BuildExecNode(const ExecEnv& env,
                                                const PlanNode& plan) {
  OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                        BuildExecNodeImpl(env, plan));
  if (env.profile != nullptr) {
    // Keyed by &plan: a fused filter chain records under the chain's top
    // node (the nodes it absorbed have no operator of their own and render
    // as "(fused)" in the ANALYZE tree).
    node = std::make_unique<StatsExec>(env, &plan, std::move(node));
  }
  return node;
}

}  // namespace oodb
