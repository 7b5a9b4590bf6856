#include "src/exec/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/exec/batch_pool.h"

namespace oodb {

namespace {

/// Finds the topmost Alg-Project in the plan (property enforcers — e.g. a
/// Sort satisfying an ORDER BY — may sit above it). Output rows are its
/// emit list evaluated against each final tuple, whose slots survive every
/// order-preserving or -enforcing operator above the projection.
const PhysicalOp* FindProject(const PlanNode& node) {
  if (node.op.kind == PhysOpKind::kAlgProject) return &node.op;
  for (const PlanNodePtr& c : node.children) {
    if (const PhysicalOp* p = FindProject(*c)) return p;
  }
  return nullptr;
}

int MaxDop(const PlanNode& node) {
  int dop = node.op.kind == PhysOpKind::kExchange ? std::max(1, node.op.dop) : 1;
  for (const PlanNodePtr& c : node.children) dop = std::max(dop, MaxDop(*c));
  return dop;
}

/// CI lever: OODB_FORCE_ANALYZE=1 turns every execution into an analyzed
/// one, proving the instrumentation never skews results. Read once.
bool ForceAnalyze() {
  static const bool forced = [] {
    const char* v = std::getenv("OODB_FORCE_ANALYZE");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return forced;
}

/// Process-wide exec-fault default (OODB_EXEC_FAULTS spec; read once).
/// Used only when the per-run policy is left inert. A malformed spec is
/// reported once and ignored rather than failing every query.
const ExecFaultPolicy& EnvExecFaults() {
  static const ExecFaultPolicy policy = [] {
    const char* v = std::getenv("OODB_EXEC_FAULTS");
    if (v == nullptr || v[0] == '\0') return ExecFaultPolicy{};
    Result<ExecFaultPolicy> parsed = ParseExecFaultSpec(v);
    if (!parsed.ok()) {
      std::fprintf(stderr, "OODB_EXEC_FAULTS ignored: %s\n",
                   parsed.status().ToString().c_str());
      return ExecFaultPolicy{};
    }
    return *parsed;
  }();
  return policy;
}

}  // namespace

Result<ExecStats> ExecutePlan(const PlanNode& plan, ObjectStore* store,
                              QueryContext* ctx, ExecOptions options) {
  if (options.cold_start) store->ResetSimulation();
  ExecEnv env;
  env.store = store;
  env.ctx = ctx;
  env.governor = options.governor;
  // The drain is the serial pipeline: it charges the store's stream, whose
  // earlier reads (a warm start) are not this run's to govern.
  SimStream& stream = store->stream();
  stream.governed_reads = stream.reads();
  env.stream = &stream;
  env.batch_size = options.batch_size > 0
                       ? static_cast<size_t>(options.batch_size)
                       : static_cast<size_t>(std::max(
                             1, store->timing().exec_batch_size));
  env.topk = options.topk;
  env.fault_attempt = options.fault_attempt;
  env.replan_drift_threshold = options.replan_drift_threshold;
  // The injector lives on this frame: the root is destroyed (joining every
  // Exchange worker) before it goes out of scope.
  const ExecFaultPolicy& fault_policy =
      options.exec_faults.enabled() ? options.exec_faults : EnvExecFaults();
  ExecFaultInjector injector(fault_policy);
  if (fault_policy.enabled()) env.exec_faults = &injector;
  std::shared_ptr<ExecProfile> profile;
  if (options.profile != nullptr) {
    env.profile = options.profile;
  } else if (options.analyze || ForceAnalyze()) {
    profile = std::make_shared<ExecProfile>();
    env.profile = profile.get();
  }
  OODB_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> root,
                        BuildExecNode(env, plan));
  OODB_RETURN_IF_ERROR(root->Open());
  const PhysicalOp* project = FindProject(plan);

  ExecStats stats;
  stats.batch_size = static_cast<int>(env.batch_size);
  stats.dop = MaxDop(plan);
  // On Exchange-free pipelines this drain loop IS the pipeline root, so the
  // deterministic batch-boundary fault sites (worker kill, straggler delay)
  // fire here as worker 0; under an Exchange the workers own their batch
  // boundaries and this loop only consumes.
  const bool root_fault_sites =
      env.exec_faults != nullptr &&
      CountOps(plan, PhysOpKind::kExchange) == 0;
  // The drain batch goes back to the pool on every exit path.
  struct PooledBatch {
    TupleBatch batch;
    ~PooledBatch() { BatchPool::Instance().Return(std::move(batch)); }
  } drain{BatchPool::Instance().Take(env.num_bindings(), env.batch_size)};
  TupleBatch& batch = drain.batch;
  while (true) {
    OODB_ASSIGN_OR_RETURN(size_t n, root->Next(&batch));
    if (n == 0) break;
    if (root_fault_sites) {
      OODB_RETURN_IF_ERROR(
          injector.OnBatchBoundary(0, options.fault_attempt).Apply(&stream));
    }
    stats.rows += static_cast<int64_t>(n);
    if (options.governor != nullptr) {
      OODB_RETURN_IF_ERROR(
          options.governor->ChargeRows(static_cast<int64_t>(n)));
    }
    if (project != nullptr) {
      // active_ref: the root batch may carry a selection vector (columnar
      // mode); n counts live rows and sampling must follow the same list.
      for (size_t i = 0;
           i < n && static_cast<int>(stats.sample_rows.size()) <
                        options.sample_limit;
           ++i) {
        std::vector<Value> row;
        for (const ScalarExprPtr& e : project->emit) {
          OODB_ASSIGN_OR_RETURN(Value v,
                                EvalExpr(*e, batch.active_ref(i), *ctx));
          row.push_back(std::move(v));
        }
        stats.sample_rows.push_back(std::move(row));
      }
    }
  }
  root->Close();

  stats.sim_io_s = stream.clock.io_s;
  stats.sim_cpu_s = stream.clock.cpu_s;
  stats.pages_read = stream.reads();
  stats.seq_reads = stream.seq_reads;
  stats.random_reads = stream.random_reads;
  stats.buffer_hits = stream.buffer_hits;
  if (options.governor != nullptr) {
    stats.governor = options.governor->stats();
  }
  stats.faults_injected = injector.injected();
  stats.profile = std::move(profile);
  return stats;
}

}  // namespace oodb
