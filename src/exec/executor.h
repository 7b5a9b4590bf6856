// Plan executor: runs a physical plan against the simulated store and
// reports simulated time and I/O statistics, enabling end-to-end validation
// of the optimizer's anticipated costs.
#ifndef OODB_EXEC_EXECUTOR_H_
#define OODB_EXEC_EXECUTOR_H_

#include <memory>

#include "src/common/governor.h"
#include "src/exec/operators.h"
#include "src/trace/exec_profile.h"

namespace oodb {

struct ExecStats {
  int64_t rows = 0;
  double sim_io_s = 0.0;
  double sim_cpu_s = 0.0;
  int64_t pages_read = 0;
  int64_t seq_reads = 0;
  int64_t random_reads = 0;
  int64_t buffer_hits = 0;
  /// Rows per batch the pipeline ran with.
  int batch_size = 0;
  /// Degree of parallelism: the maximum Exchange dop in the plan (1 when
  /// the plan is serial).
  int dop = 1;
  /// Governor trip/charge counters (zero when the run was ungoverned).
  GovernorStats governor;
  /// Faults the exec-layer injector actually fired.
  int64_t faults_injected = 0;

  double sim_total_s() const { return sim_io_s + sim_cpu_s; }

  /// Projected output rows (first `sample_limit` only).
  std::vector<std::vector<Value>> sample_rows;

  /// Per-operator runtime counters (EXPLAIN ANALYZE); null unless the run
  /// was analyzed (ExecOptions::analyze / ExecOptions::profile /
  /// OODB_FORCE_ANALYZE).
  std::shared_ptr<ExecProfile> profile;
};

struct ExecOptions {
  /// Reset buffer pool / clock before running (cold start).
  bool cold_start = true;
  /// How many projected rows to retain in the stats.
  int sample_limit = 10;
  /// Rows per execution batch. 0 means the store's timing knob
  /// (exec_batch_size); 1 degenerates to tuple-at-a-time iteration.
  int batch_size = 0;
  /// Per-query resource governor (non-owning; null = ungoverned). Checked
  /// at every operator Next() — i.e. per batch — and charged per output
  /// batch.
  QueryGovernor* governor = nullptr;
  /// Collect per-operator runtime counters (EXPLAIN ANALYZE). Off by
  /// default: the serial execution path is then bit-identical to the
  /// uninstrumented one. The environment variable OODB_FORCE_ANALYZE=1
  /// (read once per process) forces this on for every run — the CI lever
  /// proving instrumentation never changes results.
  bool analyze = false;
  /// Top-k fast paths (bounded heap / streaming first-k cutoff). false
  /// switches TopKExec to the buffer-all / stable-sort / truncate oracle
  /// the parity suite diffs the fast paths against. Identical results;
  /// simulated charges follow the naive algorithm.
  bool topk = true;
  /// Caller-owned collector for analyzed runs (implies `analyze`). Useful
  /// when the caller needs the partial profile even if execution fails
  /// mid-plan (ExecutePlan returns only a Status then) — e.g. rendering a
  /// governor-tripped EXPLAIN ANALYZE. Null: ExecutePlan allocates one and
  /// returns it in ExecStats::profile.
  ExecProfile* profile = nullptr;
  /// Exec-layer fault injection (inert by default). When left inert, the
  /// OODB_EXEC_FAULTS environment spec (read once per process; see
  /// ParseExecFaultSpec for the key=value grammar) supplies a process-wide
  /// default — the chaos-CI lever.
  ExecFaultPolicy exec_faults;
  /// Base attempt number for fault-site identity: the Session retry loop
  /// passes its attempt index so "fail the first N attempts" policies make
  /// faults transient across query-level retries too.
  int fault_attempt = 0;
  /// Mid-query re-planning trigger (0 = off): pipeline-breaker inputs fail
  /// with kPlanDrift when actual rows drift past the estimate by this
  /// factor (see ExecEnv::replan_drift_threshold). Armed by the Session's
  /// adaptive path; callers that arm it must handle kPlanDrift.
  double replan_drift_threshold = 0.0;
};

/// Executes `plan` to completion.
Result<ExecStats> ExecutePlan(const PlanNode& plan, ObjectStore* store,
                              QueryContext* ctx, ExecOptions options = {});

}  // namespace oodb

#endif  // OODB_EXEC_EXECUTOR_H_
