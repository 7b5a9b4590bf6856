#include "src/exec/exchange.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/exec/batch_pool.h"
#include "src/exec/sort_keys.h"
#include "src/exec/worker_pool.h"
#include "src/physical/parallel.h"
#include "src/trace/exec_profile.h"

namespace oodb {

namespace {

/// How long the consumer waits on an empty queue before it ticks the
/// governor (a hung worker must never hang the consumer past its deadline).
/// End of stream never waits on this: the delivery that ends a stream closes
/// its queue.
constexpr double kCheckIntervalMs = 10.0;

/// Bounded MPSC queue of TupleBatches. Producers block when full, the
/// consumer waits (boundedly) when empty; Close() ends the stream once the
/// queued batches drain. Abort() wakes everyone and makes every subsequent
/// Push/PopFor fail, so a dying consumer never strands a producer (and vice
/// versa). Batches stranded in the queue by an abort are parked back in the
/// BatchPool, never leaked — the pooled-arena invariant holds across
/// cancelled and faulted queries.
class BatchQueue {
 public:
  explicit BatchQueue(size_t capacity) : capacity_(capacity) {}

  ~BatchQueue() {
    MutexLock lock(mu_);
    DrainToPoolLocked();
  }

  /// False when the queue was aborted; the batch is then left untouched in
  /// the caller's hands (so the caller can pool it).
  ///
  /// Wakeups are lazy: the consumer is only notified once the queue is at
  /// least half full (or by Close/Kick/Abort). Notifying on every push
  /// ping-pongs producer and consumer through the scheduler — on a machine
  /// with fewer cores than workers each notify wake-preempts the producer,
  /// costing a context-switch round trip per batch. Batching the wakeups
  /// keeps everyone correct (a partition's delivery kicks or closes the
  /// queue; a full queue necessarily crossed the threshold) while letting
  /// each side run for several batches per slice.
  bool Push(TupleBatch&& batch) {
    UniqueLock lock(mu_);
    while (queue_.size() >= capacity_ && !abort_) not_full_.Wait(lock);
    if (abort_) return false;
    queue_.push_back(std::move(batch));
    if (queue_.size() * 2 >= capacity_) not_empty_.NotifyOne();
    return true;
  }

  enum class PopResult { kBatch, kTimeout, kClosed };

  /// Pops with a bounded wait: kClosed once the queue is closed and
  /// drained, or aborted. Producers are re-woken once the queue has drained
  /// to half (see Push on why not per-pop).
  PopResult PopFor(TupleBatch* out, double timeout_ms) {
    UniqueLock lock(mu_);
    // A fixed deadline (not a per-wait timeout) so spurious wakeups re-check
    // the predicate without extending the bounded wait.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    while (queue_.empty() && !closed_ && !abort_) {
      if (!not_empty_.WaitUntil(lock, deadline) && queue_.empty() &&
          !closed_ && !abort_) {
        return PopResult::kTimeout;
      }
    }
    if (queue_.empty()) return PopResult::kClosed;
    *out = std::move(queue_.front());
    queue_.pop_front();
    if (queue_.size() * 2 <= capacity_) not_full_.NotifyAll();
    return PopResult::kBatch;
  }

  /// End of stream: nothing more will be pushed. Queued batches still pop.
  void Close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.NotifyAll();
  }

  /// Wakes the consumer regardless of the lazy-notify threshold (a small
  /// partition's delivery may never half-fill the queue).
  void Kick() {
    MutexLock lock(mu_);
    not_empty_.NotifyAll();
  }

  void Abort() {
    MutexLock lock(mu_);
    abort_ = true;
    DrainToPoolLocked();
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

 private:
  /// Returns every queued batch to the BatchPool. In-flight arenas must
  /// survive a mid-pipeline abort as pooled arenas, or every
  /// cancelled/faulted query leaks its queue depth in allocations. Takes the
  /// BatchPool lock under mu_ (batch_queue -> batch_pool, in rank order).
  void DrainToPoolLocked() REQUIRES(mu_) {
    while (!queue_.empty()) {
      BatchPool::Instance().Return(std::move(queue_.front()));
      queue_.pop_front();
    }
  }

  Mutex mu_{lock_rank::kBatchQueue};
  CondVar not_full_, not_empty_;
  std::deque<TupleBatch> queue_ GUARDED_BY(mu_);
  size_t capacity_;
  bool closed_ GUARDED_BY(mu_) = false;
  bool abort_ GUARDED_BY(mu_) = false;
};

class ExchangeExec : public ExecNode {
 public:
  ExchangeExec(ExecEnv env, const PlanNode& plan) : env_(env), plan_(&plan) {}

  ~ExchangeExec() override { Shutdown(); }

  Status Open() override {
    const PlanNode& child = *plan_->children[0];
    driver_ = FindPartitionableScan(child);
    dop_ = driver_ != nullptr ? std::max(1, plan_->op.dop) : 1;
    env_.clock().cpu_s +=
        env_.timing().exchange_startup_s * static_cast<double>(dop_);
    merge_ = plan_->op.merge;
    if (merge_) {
      codec_.emplace(plan_->op.sort.keys, env_.store, env_.ctx);
      for (int p = 0; p < dop_; ++p) {
        queues_.push_back(std::make_unique<BatchQueue>(16));
      }
      cursors_ = std::vector<MergeCursor>(static_cast<size_t>(dop_));
      if (env_.profile != nullptr) {
        merge_prof_ = env_.profile->Register(plan_);
        merge_prof_->merge_streams = dop_;
      }
    } else {
      // Deep (but still bounded) buffering: 16 batches per partition.
      // Producers that never hit the bound run their whole partition
      // without a blocking wait — on a machine with fewer cores than
      // workers that turns the stream into long uninterrupted runs per
      // thread instead of a block/wake ping-pong per batch, and on larger
      // machines the extra depth only relaxes backpressure.
      queues_.push_back(
          std::make_unique<BatchQueue>(16 * static_cast<size_t>(dop_)));
    }
    // Fixed before any worker starts: each worker writes only its own
    // entry, and the consumer reads them after the join.
    workers_ = std::vector<Worker>(static_cast<size_t>(dop_));
    {
      MutexLock plock(pending_mu_);
      pending_ = dop_;
    }
    for (int p = 0; p < dop_; ++p) {
      WorkerPool::Instance().Submit([this, p] {
        RunWorker(p);
        MutexLock plock(pending_mu_);
        if (--pending_ == 0) pending_cv_.NotifyAll();
      });
    }
    return Status::OK();
  }

  Result<size_t> Next(TupleBatch* out) override {
    OODB_RETURN_IF_ERROR(env_.Tick());
    out->Clear();
    if (done_) return Finish();
    if (merge_) return NextMerge(out);
    TupleBatch batch;
    OODB_ASSIGN_OR_RETURN(bool popped, PopBatch(0, &batch));
    if (!popped) {
      done_ = true;
      return Finish();
    }
    return Deliver(out, std::move(batch));
  }

  void Close() override { Shutdown(); }

 private:
  // ------------------------- shared plumbing -------------------------

  /// Hands `batch` to the caller, pooling the arena the caller still holds
  /// from the previous Next — steady-state flow allocates nothing.
  Result<size_t> Deliver(TupleBatch* out, TupleBatch&& batch) {
    env_.clock().cpu_s += static_cast<double>(batch.size()) *
                          env_.timing().exchange_flow_tuple_s;
    BatchPool::Instance().Return(std::move(*out));
    *out = std::move(batch);
    return out->size();
  }

  /// Pops the next batch of queue `q` for the consumer. While the queue
  /// stays empty it wakes every kCheckIntervalMs to tick the governor.
  /// False at end of stream: the queue was closed and drained, or aborted.
  Result<bool> PopBatch(size_t q, TupleBatch* out) {
    while (true) {
      switch (queues_[q]->PopFor(out, kCheckIntervalMs)) {
        case BatchQueue::PopResult::kBatch:
          return true;
        case BatchQueue::PopResult::kClosed:
          return false;
        case BatchQueue::PopResult::kTimeout:
          break;
      }
      OODB_RETURN_IF_ERROR(env_.CheckGovernor());
    }
  }

  /// Partition `p`'s destination: the shared queue of a plain Exchange,
  /// the partition's own FIFO of a merging one.
  BatchQueue& Destination(int p) {
    return *queues_[merge_ ? static_cast<size_t>(p) : 0];
  }

  void AbortQueues() {
    for (std::unique_ptr<BatchQueue>& q : queues_) q->Abort();
  }

  ExecEnv MakeWorkerEnv(SimStream* stream, ExecProfile* profile,
                        int partition) {
    ExecEnv wenv = env_;
    wenv.stream = stream;
    wenv.profile = profile;
    if (driver_ != nullptr && dop_ > 1) {
      wenv.partition_node = driver_;
      wenv.partition_index = partition;
      wenv.partition_count = dop_;
    }
    wenv.merge_sort = merge_ ? &plan_->op.sort : nullptr;
    wenv.fault_worker = partition;
    return wenv;
  }

  // --------------------- order-preserving merge ----------------------
  //
  // op.merge: each partition is a contiguous chunk of the driver scan and
  // the child plan sorts it (or top-k's it) locally, so every partition's
  // stream arrives in op.sort order. Instead of the shared interleaving
  // queue, each partition delivers into its own FIFO and the consumer runs
  // a k-way merge over the stream heads — ties go to the lower partition
  // index, which together with contiguous partitioning and stable
  // per-partition sorts reproduces the *global* stable sort order exactly.
  // op.limit > 0 stops the merge after k rows (each producer was already
  // limited to k by its local TopK; the merge re-truncates the union).
  //
  // Keys: the workers' Sort/TopK attach the order words they encoded to
  // each batch (ExecEnv::merge_sort), and SortKeyCodec::Encode serves them;
  // a stream without them (an ordered index scan) is encoded here, once per
  // batch. Rows: the merge copies runs, not rows. It takes the best stream
  // head and the runner-up, finds the longest prefix of the best stream's
  // batch that merges before the runner-up's head (exponential search over
  // the words), and appends that prefix as one block.

  struct MergeCursor {
    TupleBatch batch;
    size_t pos = 0;
    bool open = false;       ///< batch holds rows (pos < batch.size())
    bool exhausted = false;  ///< stream closed and drained
    std::vector<uint64_t> scratch;    ///< words encoded here, if needed
    const uint64_t* words = nullptr;  ///< the batch's rows' order words
    size_t encoded = 0;  ///< rows [0, encoded) have words; the next one fails

    const uint64_t* key(size_t nw, size_t i) const { return words + i * nw; }
    const Slot* row(size_t i) const { return batch.ref(i).slots; }
  };

  /// Advances cursor `w` by `n` rows, waiting on the partition's queue at
  /// batch boundaries and taking (or encoding) each new batch's words.
  Status AdvanceCursor(int w, size_t n) {
    MergeCursor& c = cursors_[static_cast<size_t>(w)];
    c.pos += n;
    while (!c.exhausted && (!c.open || c.pos >= c.batch.size())) {
      TupleBatch next;
      OODB_ASSIGN_OR_RETURN(bool popped,
                            PopBatch(static_cast<size_t>(w), &next));
      if (c.open) BatchPool::Instance().Return(std::move(c.batch));
      if (popped) {
        c.batch = std::move(next);
        c.pos = 0;
        c.open = c.batch.size() > 0;
        c.scratch.resize(c.batch.size() * codec_->words());
        const SortKeyCodec::Encoded enc =
            codec_->Encode(&c.batch, c.scratch.data());
        c.words = enc.words;
        c.encoded = enc.good;
        if (merge_prof_ != nullptr && c.open &&
            enc.words == c.scratch.data()) {
          ++merge_prof_->merge_encoded;
        }
      } else {
        c.open = false;
        c.exhausted = true;
      }
    }
    if (c.exhausted || c.pos < c.encoded) return Status::OK();
    return codec_->KeyError(c.batch.ref(c.pos));
  }

  /// True when cursor `a`'s head merges before cursor `b`'s on the keys
  /// alone (a tie is for the caller to break by partition index).
  bool HeadLess(const MergeCursor& a, const MergeCursor& b) const {
    const size_t nw = codec_->words();
    return codec_->Compare(a.key(nw, a.pos), a.row(a.pos), b.key(nw, b.pos),
                           b.row(b.pos)) < 0;
  }

  /// How many rows of `c`'s batch, from its head on and at most `cap`, merge
  /// before `rival`'s head: those that compare less, and those that tie when
  /// `c` is the lower partition. A stream is sorted, so they form a prefix,
  /// found by exponential then binary search; the head itself always counts.
  size_t RunLength(const MergeCursor& c, const MergeCursor& rival,
                   bool lower, size_t cap) const {
    const size_t nw = codec_->words();
    const uint64_t* rival_key = rival.key(nw, rival.pos);
    const Slot* rival_row = rival.row(rival.pos);
    auto precedes = [&](size_t i) {
      const size_t r = c.pos + i;
      const int cmp =
          codec_->Compare(c.key(nw, r), c.row(r), rival_key, rival_row);
      return cmp < 0 || (cmp == 0 && lower);
    };
    // Rows [0, lo) precede; row hi (when below cap) does not.
    size_t lo = 1, hi = cap;
    for (size_t step = 1; lo < hi; step *= 2) {
      const size_t probe = std::min(lo + step, hi) - 1;
      if (!precedes(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (precedes(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  Result<size_t> NextMerge(TupleBatch* out) {
    if (!merge_primed_) {
      merge_primed_ = true;
      for (int w = 0; w < dop_; ++w) {
        OODB_RETURN_IF_ERROR(AdvanceCursor(w, 0));
      }
    }
    const int64_t limit = plan_->op.limit;
    const double row_cpu_s =
        env_.timing().exchange_flow_tuple_s +
        LogCeil(static_cast<size_t>(dop_)) * env_.timing().cpu_pred_s;
    while (!out->full()) {
      size_t room = out->capacity() - out->size();
      if (limit > 0) {
        if (merge_emitted_ >= limit) break;
        room = std::min(room, static_cast<size_t>(limit - merge_emitted_));
      }
      // The best head and the runner-up over the open streams: strictly-less
      // replaces, so equal keys keep the lower partition index.
      int best = -1, second = -1;
      for (int w = 0; w < dop_; ++w) {
        const MergeCursor& c = cursors_[static_cast<size_t>(w)];
        if (c.exhausted) continue;
        if (best < 0 || HeadLess(c, cursors_[static_cast<size_t>(best)])) {
          second = best;
          best = w;
        } else if (second < 0 ||
                   HeadLess(c, cursors_[static_cast<size_t>(second)])) {
          second = w;
        }
      }
      if (best < 0) break;  // every stream drained
      MergeCursor& c = cursors_[static_cast<size_t>(best)];
      size_t n = std::min(room, c.encoded - c.pos);
      if (second >= 0) {
        n = RunLength(c, cursors_[static_cast<size_t>(second)],
                      best < second, n);
      }
      out->AppendRows(c.batch, c.pos, n);
      for (size_t i = 0; i < n; ++i) env_.clock().cpu_s += row_cpu_s;
      merge_emitted_ += static_cast<int64_t>(n);
      if (merge_prof_ != nullptr) ++merge_prof_->merge_runs;
      OODB_RETURN_IF_ERROR(AdvanceCursor(best, n));
    }
    if (out->size() > 0) return out->size();
    // End of stream: the limit was reached or every stream drained.
    // Partitions still producing past a reached limit are cut loose.
    if (limit > 0 && merge_emitted_ >= limit) StopWorkers();
    done_ = true;
    return Finish();
  }

  // ---------------------------- partitions ---------------------------
  //
  // Every Exchange, plain or merging, runs exactly one worker per
  // partition, dispatched at Open. Its batches stream straight into the
  // partition's destination queue, so the consumer overlaps the producers.
  // A worker that fails ends the query with its error; recovering from a
  // retryable fault is the Session retry ladder's job, which re-runs the
  // whole statement.

  struct Worker {
    SimStream stream;
    std::unique_ptr<ExecProfile> profile;
  };

  /// Runs partition `p` on a fresh worker pipeline — the only loop that
  /// pulls batches from a worker pipeline — then settles it.
  void RunWorker(int p) {
    Worker& w = workers_[static_cast<size_t>(p)];
    if (env_.profile != nullptr) w.profile = std::make_unique<ExecProfile>();
    ExecEnv wenv = MakeWorkerEnv(&w.stream, w.profile.get(), p);
    Status status = Status::OK();
    Result<std::unique_ptr<ExecNode>> node =
        BuildExecNode(wenv, *plan_->children[0]);
    if (!node.ok()) status = node.status();
    if (status.ok()) status = (*node)->Open();
    while (status.ok()) {
      // The exchange is shutting down: stop early rather than burn a pool
      // thread on the rest of the chunk.
      {
        MutexLock lock(part_mu_);
        if (shutdown_) break;
      }
      TupleBatch batch =
          BatchPool::Instance().Take(wenv.num_bindings(), wenv.batch_size);
      Result<size_t> n = (*node)->Next(&batch);
      if (!n.ok() || *n == 0) {
        if (!n.ok()) status = n.status();
        BatchPool::Instance().Return(std::move(batch));
        break;
      }
      // Serialization point: a selection-marked batch compacts here, once,
      // before crossing the queue — consumers see contiguous rows and the
      // flow-tuple charge stays per *live* row.
      batch.Compact();
      if (wenv.exec_faults != nullptr) {
        status = wenv.exec_faults->OnBatchBoundary(p, wenv.fault_attempt)
                     .Apply(&w.stream);
        if (status.ok()) {
          status = wenv.exec_faults->OnPush(p, wenv.fault_attempt)
                       .Apply(&w.stream);
        }
        if (!status.ok()) {
          BatchPool::Instance().Return(std::move(batch));
          break;
        }
      }
      if (!Destination(p).Push(std::move(batch))) {
        // The queue was aborted: the push left the batch with us.
        BatchPool::Instance().Return(std::move(batch));
        status = Status::Cancelled("exchange aborted");
      }
    }
    if (node.ok()) (*node)->Close();
    Settle(p, status);
  }

  /// Settles a finished worker. A worker cut loose by StopWorkers neither
  /// delivers nor reports. A successful one ends its destination's stream
  /// once nothing more can arrive there — on the last partition of a plain
  /// Exchange, on every partition of a merging one. A failed one records
  /// the query's first error and drains the pipeline.
  void Settle(int p, const Status& status) {
    bool end_of_stream = false;
    {
      MutexLock lock(part_mu_);
      if (shutdown_) return;
      if (status.ok()) end_of_stream = merge_ || ++delivered_count_ == dop_;
    }
    if (status.ok()) {
      BatchQueue& dest = Destination(p);
      if (end_of_stream) {
        dest.Close();
      } else {
        dest.Kick();
      }
      return;
    }
    {
      MutexLock elock(error_mu_);
      if (first_error_.ok()) first_error_ = status;
    }
    AbortQueues();
  }

  // --------------------------- join/close ----------------------------

  /// Waits for the workers (once), merges their private streams, and
  /// reports the first worker error — or a clean end of stream.
  Result<size_t> Finish() {
    JoinWorkers();
    MutexLock lock(error_mu_);
    if (!first_error_.ok()) return first_error_;
    return static_cast<size_t>(0);
  }

  /// Every worker's stream merges into the consumer's, and its profile (a
  /// failed query's partial profile still shows what its workers observed).
  /// Runs once, after pending_ reached 0: workers_ is quiescent from then
  /// on.
  void JoinWorkers() {
    if (joined_) return;
    joined_ = true;
    {
      UniqueLock lock(pending_mu_);
      while (pending_ != 0) pending_cv_.Wait(lock);
    }
    const PlanNode* child = plan_->children[0].get();
    for (size_t p = 0; p < workers_.size(); ++p) {
      const Worker& w = workers_[p];
      env_.stream->MergeFrom(w.stream);
      if (env_.profile == nullptr || w.profile == nullptr) continue;
      const OpProfile* root = w.profile->Find(child);
      WorkerUtilization u;
      u.worker = static_cast<int>(p);
      u.rows = root != nullptr ? root->rows : 0;
      u.cpu_s = w.stream.clock.cpu_s;
      env_.profile->AddWorker(plan_, u);
      env_.profile->MergeFrom(*w.profile);
    }
  }

  /// Cuts every running worker loose: each exits at its next batch
  /// boundary or push and settles without delivering or reporting an error.
  void StopWorkers() {
    {
      MutexLock lock(part_mu_);
      shutdown_ = true;
    }
    AbortQueues();
  }

  /// Stops and joins the workers and pools the batches merge cursors still
  /// hold (a reached limit or an error ends the merge mid-stream).
  void Shutdown() {
    if (!joined_) StopWorkers();
    JoinWorkers();
    for (MergeCursor& c : cursors_) {
      if (c.open) BatchPool::Instance().Return(std::move(c.batch));
      c.open = false;
    }
  }

  ExecEnv env_;
  const PlanNode* plan_;
  const PlanNode* driver_ = nullptr;
  int dop_ = 1;
  bool merge_ = false;
  /// Destination queues, fixed after Open: one shared queue (plain) or one
  /// FIFO per partition (merge).
  std::vector<std::unique_ptr<BatchQueue>> queues_;
  // Merge cursor state (consumer thread only):
  std::vector<MergeCursor> cursors_;
  std::optional<SortKeyCodec> codec_;
  bool merge_primed_ = false;
  int64_t merge_emitted_ = 0;
  OpProfile* merge_prof_ = nullptr;  ///< this node's ANALYZE row, if any
  /// One per partition, fixed after Open (see JoinWorkers).
  std::vector<Worker> workers_;
  Mutex pending_mu_{lock_rank::kExchangePending};
  CondVar pending_cv_;
  int pending_ GUARDED_BY(pending_mu_) = 0;
  /// Guards the settle state below; no other lock is taken under it.
  Mutex part_mu_{lock_rank::kExchangePartition};
  int delivered_count_ GUARDED_BY(part_mu_) = 0;
  bool shutdown_ GUARDED_BY(part_mu_) = false;
  Mutex error_mu_{lock_rank::kExchangeError};
  Status first_error_ GUARDED_BY(error_mu_);
  bool done_ = false;
  bool joined_ = false;
};

}  // namespace

Result<std::unique_ptr<ExecNode>> MakeExchangeExec(const ExecEnv& env,
                                                   const PlanNode& plan) {
  if (plan.children.size() != 1) {
    return Status::Internal("exchange requires exactly one child");
  }
  return std::unique_ptr<ExecNode>(new ExchangeExec(env, plan));
}

}  // namespace oodb
