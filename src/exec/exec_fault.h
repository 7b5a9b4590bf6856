// Deterministic exec-layer fault injection. The storage layer's FaultPolicy
// (storage/fault.h) fails charged page reads; this module extends the same
// seeded, replayable model one layer up, where parallelism lives: a worker
// pipeline can be made to *die* at a batch boundary (kWorkerFault), to
// *straggle* (a per-batch wall-clock sleep plus a simulated-clock charge on one
// worker), or to *stall* its exchange-queue pushes for a bounded number of
// batches. The injector is threaded through ExecEnv so every operator Next() is
// a potential fault site (Tick-level probabilistic kills) and every pipeline
// root batch is a deterministic one.
//
// Identity model: a fault site is (worker, attempt). `worker` is the Exchange
// partition index (0 for serial execution); `attempt` is the Session-level
// query attempt (each Exchange partition runs exactly once per attempt), so a
// policy with fail_attempts = 1 produces a *transient* fault — attempt 0 dies,
// every re-execution of the statement succeeds — which is exactly the shape the
// Session retry ladder must win against. Under a bare ExecutePlan the same
// fault surfaces as kWorkerFault. Per-worker counters and RNG streams make the
// fault sequence independent of thread interleaving: the same policy over the
// same per-worker access sequence fires identically on every run, at any DOP.
#ifndef OODB_EXEC_EXEC_FAULT_H_
#define OODB_EXEC_EXEC_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/storage/disk_model.h"

namespace oodb {

/// Exec-layer fault configuration; inert by default. Parsable from the
/// OODB_EXEC_FAULTS environment spec (see ParseExecFaultSpec).
struct ExecFaultPolicy {
  /// Seed for the per-worker probabilistic kill streams.
  uint64_t seed = 0;

  // --- worker failure (kWorkerFault) ---
  /// Worker index whose pipeline dies (-1 disables the deterministic kill;
  /// use fail_probability to arm every worker). Fires at the
  /// `fail_after_batches`-th batch boundary of each attempt of that
  /// worker's pipeline root, for every attempt below fail_attempts — so a
  /// transient policy kills attempt 0 and lets the retry run clean, while a
  /// permanent one kills every re-execution until the retry ladder gives up.
  int fail_worker = -1;
  int64_t fail_after_batches = 1;
  /// Independent per-Tick (operator Next) kill probability in [0, 1), drawn
  /// from a per-worker RNG stream. 0 disables.
  double fail_probability = 0.0;
  /// Attempts [0, fail_attempts) are killed; later attempts of the same
  /// site run clean. 1 = transient (the retry-must-win shape); a large
  /// value = permanent (the typed-terminal-Status shape).
  int fail_attempts = 1;

  // --- straggler (slow worker) ---
  /// Worker index that straggles, or -1 for none. Each batch boundary on
  /// that worker sleeps `slow_ms` of real time and charges `slow_sim_s`
  /// simulated seconds to the worker's private clock, on every attempt.
  int slow_worker = -1;
  double slow_ms = 0.0;
  double slow_sim_s = 0.0;

  // --- bounded queue stall ---
  /// The first `stall_pushes` exchange-queue pushes (across all workers)
  /// each sleep `stall_ms` of real time before entering the queue. Bounded
  /// by construction: a stall can slow a query, never hang it.
  int64_t stall_pushes = 0;
  double stall_ms = 0.0;

  bool enabled() const {
    return fail_worker >= 0 || fail_probability > 0.0 || slow_worker >= 0 ||
           stall_pushes > 0;
  }
};

/// Upper bound on the real-time sleeps a fault spec may ask for (slow_ms,
/// stall_ms): one minute per batch or push.
inline constexpr double kMaxFaultSleepMs = 60000.0;

/// Parses a "key=value,key=value" spec (the OODB_EXEC_FAULTS format) into a
/// policy. Keys and their accepted values:
///   seed                          unsigned 64-bit integer
///   fail_worker, slow_worker      integer >= -1 (-1 disables)
///   fail_after_batches            integer >= 1
///   fail_attempts, stall_pushes   integer >= 0
///   fail_probability              real in [0, 1)
///   slow_ms, stall_ms             real in [0, kMaxFaultSleepMs]
///   slow_sim_s                    finite real >= 0
/// Integer keys take decimal integers only ("0.7" is rejected, not
/// truncated). Unknown keys and out-of-range values are InvalidArgument.
Result<ExecFaultPolicy> ParseExecFaultSpec(const std::string& spec);

/// Per-execution injector. Thread-safe; all state is per-worker so the
/// fault sequence is interleaving-independent.
class ExecFaultInjector {
 public:
  explicit ExecFaultInjector(const ExecFaultPolicy& policy)
      : policy_(policy) {}

  /// What a fault site must do: fail (non-OK status), sleep real time
  /// (straggler/stall), and/or charge simulated seconds.
  struct Action {
    Status status;
    double sleep_ms = 0.0;
    double sim_delay_s = 0.0;

    /// Applies the action to the pipeline that owns `stream`: charges the
    /// simulated delay to the stream's clock, sleeps the real component,
    /// and returns the injected status.
    Status Apply(SimStream* stream) const;
  };

  /// Batch boundary at a pipeline root (Exchange worker loop, or the
  /// executor's drain loop on Exchange-free plans). Deterministic fault
  /// kinds (fail_after_batches, straggler delay) fire here.
  Action OnBatchBoundary(int worker, int attempt);

  /// Operator-granularity checkpoint, called from ExecEnv::Tick at every
  /// Next() — the probabilistic kill site.
  Status OnTick(int worker, int attempt);

  /// Exchange-queue push boundary (bounded stall).
  Action OnPush(int worker, int attempt);

  /// Faults actually fired (not delays) — the observability counter.
  int64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  const ExecFaultPolicy& policy() const { return policy_; }

 private:
  struct WorkerState {
    int64_t batches = 0;
    int64_t ticks = 0;
    Rng rng{0};
    bool rng_seeded = false;
  };

  /// State is keyed by the full fault-site identity (worker, attempt): each
  /// re-execution of the query restarts its batch and tick counters, so
  /// deterministic faults fire at the same point of *every* attempt the
  /// policy arms — not just the first.
  WorkerState& StateLocked(int worker, int attempt) REQUIRES(mu_);
  void CountInjected();

  ExecFaultPolicy policy_;
  Mutex mu_{lock_rank::kExecFault};  ///< guards workers_ and pushes_
  std::map<std::pair<int, int>, WorkerState> workers_ GUARDED_BY(mu_);
  int64_t pushes_ GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> injected_{0};
};

/// True for the exec-fault classes that re-execution can cure: the
/// statement's input is a read-only store, so a dead worker (kWorkerFault)
/// or a transient media error (kStorageFault) may succeed when the Session
/// retry ladder re-runs it.
/// Governor trips and cancellation are sticky/terminal by design.
inline bool IsRetryableExecFault(StatusCode code) {
  return code == StatusCode::kWorkerFault || code == StatusCode::kStorageFault;
}

}  // namespace oodb

#endif  // OODB_EXEC_EXEC_FAULT_H_
