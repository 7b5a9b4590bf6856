// The traced replica of Session::Query's default path. Every span is timed
// here, around calls into the library's public functions; nothing inside
// src/ is instrumented. The steps mirror Session::Prepare and
// Session::ExecuteWithRetry with every optional layer (governor, retry,
// adaptation) inert, as the benchmark configures them.
#include "perfbench/bench.h"
#include "src/physical/parallel.h"
#include "src/query/zql_parser.h"

namespace perfbench {

namespace {

int CountLogicalOps(const LogicalExpr& e) {
  int n = 1;
  for (const LogicalExprPtr& c : e.children) n += CountLogicalOps(*c);
  return n;
}

void WalkPlan(const PlanNode& node, int* exchanges, int* dop) {
  if (node.op.kind == PhysOpKind::kExchange) {
    ++*exchanges;
    *dop = std::max(*dop, node.op.dop);
  }
  for (const PlanNodePtr& c : node.children) WalkPlan(*c, exchanges, dop);
}

/// Objects the plan's leaf scans read: a file scan reads its whole
/// collection (partitioned or not); an index scan reads what it emits,
/// taken from the nearest profiled node when a fused filter records above
/// it.
int64_t RowsScanned(const PlanNode& node, const ExecProfile& profile,
                    ObjectStore* store, int64_t enclosing_rows) {
  const OpProfile* p = profile.Find(&node);
  int64_t rows = p != nullptr ? p->rows : enclosing_rows;
  if (node.op.kind == PhysOpKind::kFileScan) {
    Result<const std::vector<Oid>*> members =
        store->CollectionMembers(node.op.coll);
    return members.ok() ? static_cast<int64_t>((*members)->size()) : 0;
  }
  if (node.op.kind == PhysOpKind::kIndexScan) return rows;
  int64_t sum = 0;
  for (const PlanNodePtr& c : node.children) {
    sum += RowsScanned(*c, profile, store, rows);
  }
  return sum;
}

}  // namespace

Replica::Replica(Session* session) : session_(session) {
  if (session->plan_cache() != nullptr) {
    cache_ = std::make_unique<PlanCache>(
        session->options().optimizer.plan_cache_capacity);
  }
}

ReplicaSample Replica::Run(const std::string& text) {
  static Counter* const batch_hits =
      MetricsRegistry::Global().counter("oodb_batch_pool_hits_total");
  static Counter* const batch_misses =
      MetricsRegistry::Global().counter("oodb_batch_pool_misses_total");
  static Counter* const worker_tasks =
      MetricsRegistry::Global().counter("oodb_worker_pool_tasks_total");

  ReplicaSample s;
  Catalog& catalog = session_->catalog();
  const OptimizerOptions& opts = session_->options().optimizer;
  QueryContext ctx;
  ctx.catalog = &catalog;

  const double start = NowSeconds();
  double t = start;
  s.clock_reads = 3;  // the start and the two CPU-clock reads around exec
  auto lap = [&t, &s] {
    ++s.clock_reads;
    double now = NowSeconds();
    double d = now - t;
    t = now;
    return d;
  };

  Result<ZqlQueryPtr> ast = ParseZql(text);
  s.parse_s = lap();
  if (!ast.ok()) {
    s.error = ast.status().ToString();
    return s;
  }
  SortSpec order;
  int64_t limit = 0;
  Result<LogicalExprPtr> logical = SimplifyQuery(**ast, &ctx, &order, &limit);
  s.simplify_s = lap();
  if (!logical.ok()) {
    s.error = logical.status().ToString();
    return s;
  }
  s.logical_ops = CountLogicalOps(**logical);
  PhysProps required;
  required.sort = order;
  required.limit = limit;

  OptimizedQuery optimized;
  bool have_plan = false;
  PlanCacheKey key;
  QueryFingerprint qfp;
  uint64_t version = 0;
  if (cache_ != nullptr) {
    // Keyed exactly as Session::Prepare keys its cache.
    version = catalog.stats_version();
    lap();
    qfp = FingerprintQuery(**logical, ctx, opts.plan_cache_parameterize);
    PhysProps cache_props = required;
    cache_props.limit = LimitBucket(limit);
    key = PlanCacheKey{qfp.fp, cache_props, HashOptimizerOptions(opts)};
    s.fingerprint_s = lap();
    s.cache_probed = true;
    if (std::optional<OptimizedQuery> hit = cache_->Lookup(
            key, version, **logical, ctx.bindings, qfp.literals)) {
      optimized = std::move(*hit);
      optimized.plan = RebindPlanLimit(optimized.plan, limit);
      have_plan = true;
      s.cache_hit = true;
    }
    s.lookup_s = lap();
  }
  if (!have_plan) {
    // Search serially, then plant Exchanges as a separate span: the same
    // two steps Optimizer::Optimize takes when max_dop > 1.
    OptimizerOptions serial = opts;
    serial.max_dop = 1;
    Optimizer optimizer(&catalog, serial);
    Result<OptimizedQuery> r = optimizer.Optimize(**logical, &ctx, required);
    s.search_s = lap();
    if (!r.ok()) {
      s.error = r.status().ToString();
      return s;
    }
    optimized = std::move(*r);
    s.search = optimized.stats;
    if (opts.max_dop > 1) {
      optimized.plan =
          PlantExchanges(optimized.plan, CostModel(opts.cost), opts.max_dop);
      optimized.cost = optimized.plan->total_cost;
      s.plant_s = lap();
    }
    if (cache_ != nullptr && !optimized.stats.degraded &&
        optimized.stats.verify_error.empty()) {
      auto entry = std::make_shared<CachedPlan>();
      entry->plan = optimized.plan;
      entry->cost = optimized.cost;
      entry->stats = optimized.stats;
      entry->stats_version = version;
      entry->tree = *logical;
      entry->bindings = ctx.bindings;
      entry->literals = std::move(qfp.literals);
      lap();
      cache_->Insert(key, std::move(entry));
      s.insert_s = lap();
      s.inserted = true;
    }
  }

  const PlanNode& plan = *optimized.plan;
  WalkPlan(plan, &s.exchanges, &s.dop);
  s.serial = s.exchanges == 0;
  s.est_cost = optimized.cost.total();

  ExecOptions eo = session_->options().exec;
  const int64_t hits0 = batch_hits->value();
  const int64_t misses0 = batch_misses->value();
  const int64_t tasks0 = worker_tasks->value();
  const double cpu0 = ProcessCpuSeconds();
  lap();
  Result<ExecStats> stats = ExecutePlan(plan, &session_->store(), &ctx, eo);
  s.exec_s = lap();
  s.exec_cpu_s = ProcessCpuSeconds() - cpu0;
  s.wall_s = t - start;
  s.batch_hits = batch_hits->value() - hits0;
  s.batch_misses = batch_misses->value() - misses0;
  s.worker_tasks = worker_tasks->value() - tasks0;
  if (!stats.ok()) {
    s.error = stats.status().ToString();
    return s;
  }
  s.exec = std::move(*stats);

  // Counting pass, untimed: per-operator rows for rows-scanned-per-row.
  ExecProfile profile;
  eo.profile = &profile;
  Result<ExecStats> counted = ExecutePlan(plan, &session_->store(), &ctx, eo);
  if (counted.ok()) {
    s.rows_scanned = RowsScanned(plan, profile, &session_->store(), 0);
    s.profiled_rows_out = counted->rows;
    if (const OpProfile* root = profile.Find(&plan)) s.batches = root->batches;
  }
  s.ok = true;
  return s;
}

}  // namespace perfbench
