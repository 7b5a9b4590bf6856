#include "src/session.h"

#include <algorithm>

#include "src/baseline/greedy.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/physical/parallel.h"
#include "src/query/fingerprint.h"
#include "src/trace/exec_profile.h"
#include "src/verify/verify.h"

namespace oodb {

namespace {

/// Session counters, resolved once (registered metrics are never
/// deallocated, so the cached pointers outlive every session).
struct SessionMetrics {
  Counter* prepares;
  Counter* queries;
  Counter* analyzes;
  Counter* degraded;
  Counter* cache_served;
  // Fault-tolerance observability: query-level execution retries and the
  // degradation-ladder steps actually executed.
  Counter* exec_retries;
  Counter* ladder_serial;
  Counter* ladder_greedy;
  // Drift-adaptation observability: mid-query re-optimizations and
  // drift-triggered automatic ANALYZE runs (drift-based cache evictions are
  // counted by the plan cache itself).
  Counter* replans;
  Counter* auto_analyzes;
  // Per-StatusCode terminal failures of executed statements
  // (Query/ExplainAnalyze after retry): the typed-error budget the chaos
  // suite audits.
  Counter* err_storage_fault;
  Counter* err_worker_fault;
  Counter* err_deadline;
  Counter* err_budget;
  Counter* err_cancelled;
  Counter* err_other;

  static const SessionMetrics& Get() {
    static const SessionMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      SessionMetrics m;
      m.prepares = r.counter("oodb_session_prepares_total",
                             "Statements parsed and optimized.");
      m.queries = r.counter("oodb_session_queries_total",
                            "Statements executed to completion.");
      m.analyzes = r.counter("oodb_session_analyze_total",
                             "EXPLAIN ANALYZE renderings.");
      m.degraded = r.counter(
          "oodb_session_degraded_total",
          "Governor-tripped searches answered by the greedy baseline.");
      m.cache_served = r.counter("oodb_session_plan_cache_served_total",
                                 "Prepares answered from the plan cache.");
      m.exec_retries = r.counter("oodb_session_exec_retries_total",
                                 "Query-level execution re-attempts.");
      m.ladder_serial = r.counter(
          "oodb_session_ladder_serial_total",
          "Degradation-ladder attempts executed serially (no Exchange).");
      m.ladder_greedy = r.counter(
          "oodb_session_ladder_greedy_total",
          "Degradation-ladder attempts executed on a greedy re-plan.");
      m.replans = r.counter(
          "oodb_session_replans_total",
          "Mid-query re-optimizations from observed cardinality drift.");
      m.auto_analyzes = r.counter(
          "oodb_session_auto_analyze_total",
          "Drift-triggered automatic ANALYZE runs.");
      m.err_storage_fault =
          r.counter("oodb_session_error_storage_fault_total",
                    "Statements failed with kStorageFault after retry.");
      m.err_worker_fault =
          r.counter("oodb_session_error_worker_fault_total",
                    "Statements failed with kWorkerFault after retry.");
      m.err_deadline =
          r.counter("oodb_session_error_deadline_exceeded_total",
                    "Statements failed with kDeadlineExceeded.");
      m.err_budget =
          r.counter("oodb_session_error_budget_exhausted_total",
                    "Statements failed with kBudgetExhausted.");
      m.err_cancelled = r.counter("oodb_session_error_cancelled_total",
                                  "Statements failed with kCancelled.");
      m.err_other = r.counter(
          "oodb_session_error_other_total",
          "Statements failed with any other non-OK status.");
      return m;
    }();
    return m;
  }
};

/// Counts a statement's terminal failure under its StatusCode bucket.
void CountError(StatusCode code) {
  const SessionMetrics& m = SessionMetrics::Get();
  switch (code) {
    case StatusCode::kStorageFault: m.err_storage_fault->Increment(); break;
    case StatusCode::kWorkerFault: m.err_worker_fault->Increment(); break;
    case StatusCode::kDeadlineExceeded: m.err_deadline->Increment(); break;
    case StatusCode::kBudgetExhausted: m.err_budget->Increment(); break;
    case StatusCode::kCancelled: m.err_cancelled->Increment(); break;
    default: m.err_other->Increment(); break;
  }
}

/// True when a governor trip during *planning* may be answered with the
/// greedy baseline instead of an error: the search ran out of budget or
/// time, but the query itself is fine. Cancellation and storage faults are
/// never degraded — the caller asked to stop, or the data is unreadable.
bool DegradableTrip(StatusCode code) {
  return code == StatusCode::kBudgetExhausted ||
         code == StatusCode::kDeadlineExceeded;
}

/// Renders the execution attempt trail — one line per attempt with its
/// ladder step, outcome and injected-fault count. Empty on the untried
/// clean path (a single OK attempt), so ANALYZE output is unchanged unless
/// something actually went wrong.
std::string RenderRetryTrail(const std::vector<ExecAttempt>& attempts) {
  if (attempts.size() <= 1 &&
      (attempts.empty() || attempts[0].status.ok())) {
    return "";
  }
  std::string out;
  for (const ExecAttempt& a : attempts) {
    out += "retry: attempt " + std::to_string(a.attempt) + " step=" + a.step;
    if (a.replanned) out += " replan=feedback";
    out += " status=" + (a.status.ok() ? "OK" : a.status.ToString());
    if (a.faults_injected > 0) {
      out += " faults=" + std::to_string(a.faults_injected);
    }
    out += "\n";
  }
  return out;
}

/// Maximum Exchange degree of parallelism anywhere in the plan (1 = serial).
int PlanMaxDop(const PlanNode& node) {
  int dop = node.op.kind == PhysOpKind::kExchange ? node.op.dop : 1;
  for (const PlanNodePtr& c : node.children) {
    dop = std::max(dop, PlanMaxDop(*c));
  }
  return dop;
}

}  // namespace

PlanCache* Session::plan_cache() {
  if (options_.plan_cache != nullptr) return options_.plan_cache.get();
  if (options_.optimizer.plan_cache_capacity == 0) return nullptr;
  if (own_cache_ == nullptr) {
    own_cache_ =
        std::make_shared<PlanCache>(options_.optimizer.plan_cache_capacity);
  }
  return own_cache_.get();
}

Result<OptimizedQuery> Session::RunOptimizer(const LogicalExpr& input,
                                             QueryContext* ctx,
                                             const PhysProps& required) {
  OptimizerOptions opts = options_.optimizer;
  opts.governor = governor_.get();
  Optimizer optimizer(catalog_, std::move(opts));
  Result<OptimizedQuery> optimized = optimizer.Optimize(input, ctx, required);
  if (optimized.ok() || governor_ == nullptr) return optimized;
  const Status& err = optimized.status();
  if (!DegradableTrip(err.code()) || !options_.governor.degrade_to_greedy) {
    return optimized;
  }
  // Graceful degradation: answer with the greedy baseline plan. If even the
  // greedy planner cannot handle the query (explicit joins, its own error),
  // surface the original governor trip, not the fallback's complaint.
  Result<OptimizedQuery> fallback =
      GreedyPlan(input, ctx, required, err.message());
  if (!fallback.ok()) return err;
  fallback->stats.governor = governor_->stats();
  // The tripped governor is sticky; re-arm a fresh one (fresh deadline and
  // budgets) so the degraded plan gets a real chance to execute.
  governor_ = std::make_unique<QueryGovernor>(options_.governor);
  return fallback;
}

Result<OptimizedQuery> Session::GreedyPlan(const LogicalExpr& input,
                                           QueryContext* ctx,
                                           const PhysProps& required,
                                           std::string reason) {
  GreedyOptimizer greedy(catalog_, options_.optimizer.cost);
  Result<OptimizedQuery> plan = greedy.Optimize(input, ctx, required);
  if (!plan.ok()) return plan;
  plan->stats.degraded = true;
  plan->stats.degrade_reason = std::move(reason);
  if (options_.optimizer.verify_plans && plan->plan != nullptr) {
    // The greedy path bypasses the optimizer's verification hook; hold its
    // plan to the same standard (this is exactly how the greedy planner's
    // projection-scope bug was found).
    plan->stats.verified = true;
    plan->stats.verify_error = VerifyPlanReport(*plan->plan, *ctx).ToString();
  }
  return plan;
}

Result<SessionResult> Session::Prepare(const std::string& zql) {
  SessionMetrics::Get().prepares->Increment();
  if (options_.governor.enabled()) {
    // Arm a fresh governor per query; the deadline spans optimization and,
    // when called from Query, execution of this statement.
    governor_ = std::make_unique<QueryGovernor>(options_.governor);
  } else {
    governor_.reset();
  }

  SessionResult out;
  out.ctx.catalog = catalog_;
  SortSpec order;
  int64_t limit = 0;
  OODB_ASSIGN_OR_RETURN(out.logical,
                        ParseAndSimplify(zql, &out.ctx, &order, &limit));
  PhysProps required;
  required.sort = order;
  required.limit = limit;
  out.required = required;

  PlanCache* cache = plan_cache();
  if (cache == nullptr) {
    // Cache off: exactly the seed optimization path.
    OODB_ASSIGN_OR_RETURN(out.optimized,
                          RunOptimizer(*out.logical, &out.ctx, required));
    if (out.optimized.stats.degraded) {
      SessionMetrics::Get().degraded->Increment();
    }
    return out;
  }

  // Snapshot the version *before* optimizing: if statistics move while we
  // search, the entry is stored under the old version and can never be
  // served after the bump.
  const uint64_t version = catalog_->stats_version();
  QueryFingerprint qfp =
      FingerprintQuery(*out.logical, out.ctx,
                       options_.optimizer.plan_cache_parameterize);
  // Key by the LIMIT's octave bucket, not the exact k: limits within a
  // factor of two share a plan shape (TopK heap size is a runtime
  // parameter), so `LIMIT 10` and `LIMIT 12` hit the same entry and the
  // cached plan is rebound to the exact k below — mirroring how comparison
  // literals are parameterized by selectivity bucket.
  PhysProps cache_props = required;
  cache_props.limit = LimitBucket(limit);
  PlanCacheKey key{qfp.fp, cache_props,
                   HashOptimizerOptions(options_.optimizer)};
  if (std::optional<OptimizedQuery> hit = cache->Lookup(
          key, version, *out.logical, out.ctx.bindings, qfp.literals)) {
    out.optimized = std::move(*hit);
    out.optimized.plan = RebindPlanLimit(out.optimized.plan, limit);
    out.optimized.stats.plan_cached = true;
  } else {
    OODB_ASSIGN_OR_RETURN(out.optimized,
                          RunOptimizer(*out.logical, &out.ctx, required));
    if (!out.optimized.stats.degraded &&
        out.optimized.stats.verify_error.empty()) {
      // Degraded plans are a stopgap for *this* statement's exhausted
      // budget; caching one would keep serving the inferior plan to
      // fully-budgeted callers. Plans the verifier flagged are never
      // cached either: a corrupt plan served from cache would outlive the
      // statement that exposed the bug.
      auto entry = std::make_shared<CachedPlan>();
      entry->plan = out.optimized.plan;
      entry->cost = out.optimized.cost;
      entry->stats = out.optimized.stats;
      entry->stats_version = version;
      entry->tree = out.logical;
      entry->bindings = out.ctx.bindings;
      entry->literals = std::move(qfp.literals);
      cache->Insert(key, std::move(entry));
    }
  }
  PlanCacheStats cs = cache->stats();
  out.optimized.stats.cache_hits = cs.hits;
  out.optimized.stats.cache_misses = cs.misses;
  out.optimized.stats.cache_evictions = cs.evictions;
  out.optimized.stats.cache_invalidations = cs.invalidations;
  if (out.optimized.stats.plan_cached) {
    SessionMetrics::Get().cache_served->Increment();
  }
  if (out.optimized.stats.degraded) {
    SessionMetrics::Get().degraded->Increment();
  }
  return out;
}

Result<ExecStats> Session::ExecuteWithRetry(SessionResult* r,
                                            ExecProfile* profile) {
  const RetryPolicy& retry = options_.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  Status last = Status::OK();
  // Mid-query re-planning shares this loop with the fault-retry ladder but
  // keeps separate books: `attempt` indexes ladder rungs (fault retries
  // only), `attempt_no` numbers the rendered trail, and a re-plan consumes
  // a replan-budget slot instead of a ladder rung — a drift abort on
  // attempt 0 re-executes at step 0, still as planned.
  bool replan_armed = options_.adaptive.replan_enabled();
  bool next_replanned = false;
  int attempt_no = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt_no) {
    ExecOptions opts = options_.exec;
    opts.governor = governor_.get();  // same governor: deadline spans both
    opts.fault_attempt = attempt;
    if (replan_armed && r->replans < options_.adaptive.max_replans) {
      opts.replan_drift_threshold = options_.adaptive.replan_drift_threshold;
    } else {
      // Budget spent (or re-plan machinery failed): the plan must run to
      // completion, so the breaker checks are disarmed.
      opts.replan_drift_threshold = 0.0;
    }
    // Ladder step for this attempt. Step 0 runs the plan as optimized;
    // each retry steps down one rung (serial -> greedy), never back up.
    const int step = retry.degrade ? std::min(attempt, 2) : 0;
    ExecAttempt rec;
    rec.attempt = attempt_no;
    rec.replanned = next_replanned;
    switch (step) {
      case 0:
        rec.step = "planned";
        break;
      case 1:
        rec.step = "serial";
        break;
      default: {
        // Last rung: abandon the cost-based plan entirely and run the
        // greedy baseline's plan (which has no Exchange) — a structurally
        // different tree, in case the failure tracks a plan shape rather
        // than an engine mode. It replaces r->optimized so the rendered
        // plan is the one that produced the rows; failure to even re-plan
        // (e.g. explicit joins) re-runs the serial rung instead.
        Result<OptimizedQuery> fallback =
            GreedyPlan(*r->logical, &r->ctx, r->required,
                       "exec retry ladder: " + last.ToString());
        if (fallback.ok()) {
          r->optimized = std::move(*fallback);
          rec.step = "greedy";
          SessionMetrics::Get().ladder_greedy->Increment();
        } else {
          rec.step = "serial";
        }
        break;
      }
    }
    if (rec.step == "serial") {
      // The same plan with every Exchange replaced by its child, run
      // unpartitioned on this thread.
      r->optimized.plan = StripExchanges(r->optimized.plan);
      r->optimized.cost = r->optimized.plan->total_cost;
      SessionMetrics::Get().ladder_serial->Increment();
    }
    next_replanned = false;
    ExecProfile attempt_profile;
    // The attempt profile also feeds mid-query re-planning: when the
    // breaker checks are armed, feedback extraction needs actuals even if
    // the caller asked for no profile.
    if (profile != nullptr || opts.replan_drift_threshold > 0.0) {
      opts.profile = &attempt_profile;
    }

    Result<ExecStats> stats =
        ExecutePlan(*r->optimized.plan, &store_, &r->ctx, opts);
    if (!stats.ok() && stats.status().code() == StatusCode::kPlanDrift) {
      // A pipeline breaker saw its input drift past the threshold and
      // aborted the unexecuted suffix. Extract observed cardinalities from
      // the partial profile and re-enter the memo; the corrected plan
      // re-executes at the *same* ladder step (drift is a planning problem,
      // not an engine fault). The aborted attempt's profile is dropped
      // after extraction, so operator accounting stays exactly-once.
      rec.status = stats.status();
      rec.sim_s = store_.stream().clock.total();
      Status replanned = ReplanWithFeedback(r, attempt_profile);
      next_replanned = replanned.ok();
      if (replanned.ok()) {
        SessionMetrics::Get().replans->Increment();
      } else {
        // No usable feedback (or the re-optimization itself failed): disarm
        // the breaker checks and re-run the current plan to completion
        // rather than failing a healthy query.
        replan_armed = false;
      }
      // The re-dispatch is a governed resource, same as a fault retry.
      if (governor_ != nullptr) {
        Status charged = governor_->ChargeRetry();
        if (!charged.ok()) {
          r->attempts.push_back(std::move(rec));
          if (profile != nullptr) profile->MergeFrom(attempt_profile);
          return charged;
        }
      }
      r->attempts.push_back(std::move(rec));
      continue;
    }
    const bool terminal = stats.ok() ||
                          !IsRetryableExecFault(stats.status().code()) ||
                          attempt + 1 >= max_attempts;
    rec.status = stats.ok() ? Status::OK() : stats.status();
    if (stats.ok()) {
      rec.faults_injected = stats->faults_injected;
      rec.sim_s = stats->sim_total_s();
    } else {
      rec.sim_s = store_.stream().clock.total();
    }
    if (terminal) {
      r->attempts.push_back(std::move(rec));
      // Only the final attempt's profile merges: earlier attempts ran the
      // same plan nodes and would double-count every operator.
      if (profile != nullptr) profile->MergeFrom(attempt_profile);
      return stats;
    }
    last = stats.status();
    // Retry is a governed resource: charge it before re-dispatching, and
    // let a tripped retry budget end the ladder with its typed Status.
    if (governor_ != nullptr) {
      Status charged = governor_->ChargeRetry();
      if (!charged.ok()) {
        r->attempts.push_back(std::move(rec));
        if (profile != nullptr) profile->MergeFrom(attempt_profile);
        return charged;
      }
    }
    r->attempts.push_back(std::move(rec));
    SessionMetrics::Get().exec_retries->Increment();
    ++attempt;  // fault retries consume ladder rungs; re-plans do not
  }
  return last;  // unreachable: the loop exits through `terminal`
}

Status Session::ReplanWithFeedback(SessionResult* r,
                                   const ExecProfile& profile) {
  auto fb = std::make_shared<CardFeedback>(
      ExtractCardFeedback(*r->optimized.plan, profile, r->ctx, store_));
  if (fb->empty()) {
    return Status::Internal("replan: no usable cardinality feedback");
  }
  // The feedback must outlive the re-optimized plan (the estimator reads it
  // through ctx.feedback during the search only, but a later replan of the
  // same statement extends it), so the result owns it.
  r->feedback = fb;
  r->ctx.feedback = fb.get();
  Result<OptimizedQuery> re =
      RunOptimizer(*r->logical, &r->ctx, r->required);
  if (!re.ok()) return re.status();
  // Feedback-costed plans are query-local: RunOptimizer never touches the
  // plan cache, so the corrected plan cannot leak to other statements.
  r->optimized = std::move(*re);
  r->optimized.stats.replanned = true;
  ++r->replans;
  return Status::OK();
}

void Session::MaybeAdapt(SessionResult* r, const ExecProfile& profile) {
  const AdaptiveOptions& a = options_.adaptive;
  if (!a.feedback_enabled()) return;
  const double drift = MaxDriftRatio(*r->optimized.plan, profile);
  r->observed_drift = drift;
  ++executed_since_analyze_;
  if (a.analyze_drift_threshold > 0.0 && drift > a.analyze_drift_threshold &&
      executed_since_analyze_ >= std::max(1, a.analyze_cooldown)) {
    // Statistics are provably stale enough to mis-plan; refresh them now,
    // on the triggering statement's budget. The version bump invalidates
    // every cached plan costed under the stale statistics on next contact.
    AnalyzeOptions opts = a.analyze;
    opts.governor = governor_.get();
    if (AnalyzeStore(store_, catalog_, opts).ok()) {
      executed_since_analyze_ = 0;
      r->auto_analyzed = true;
      SessionMetrics::Get().auto_analyzes->Increment();
    }
    // A governor-tripped ANALYZE simply skips: the refresh retries on a
    // later statement once the cooldown re-opens.
  }
}

Result<SessionResult> Session::Query(const std::string& zql) {
  Result<SessionResult> prepared = Prepare(zql);
  if (!prepared.ok()) {
    CountError(prepared.status().code());
    return prepared.status();
  }
  SessionResult out = std::move(*prepared);
  SessionMetrics::Get().queries->Increment();
  // Post-execution drift recording / auto-ANALYZE needs per-operator
  // actuals; collect them only when that adaptive layer is armed so the
  // plain path stays uninstrumented.
  ExecProfile profile;
  const bool adapt = options_.adaptive.feedback_enabled();
  Result<ExecStats> stats = ExecuteWithRetry(&out, adapt ? &profile : nullptr);
  if (!stats.ok()) {
    CountError(stats.status().code());
    return stats.status();
  }
  out.exec = std::move(*stats);
  if (adapt) MaybeAdapt(&out, profile);
  return out;
}

std::string Session::ExplainHeader(const SessionResult& r) {
  std::string out;
  const SearchStats& st = r.optimized.stats;
  if (st.degraded) {
    out += "plan: degraded(greedy, reason=" + st.degrade_reason + ")\n";
  }
  if (st.replanned) out += "plan: replanned(feedback)\n";
  if (st.plan_cached) out += "plan: cached\n";
  if (!st.verify_error.empty()) {
    out += "verify: FAILED\n" + st.verify_error + "\n";
  }
  if (plan_cache() != nullptr) {
    out += "plan cache: hits=" + std::to_string(st.cache_hits) +
           " misses=" + std::to_string(st.cache_misses) +
           " evictions=" + std::to_string(st.cache_evictions) +
           " invalidations=" + std::to_string(st.cache_invalidations) + "\n";
  }
  if (governor_ != nullptr) {
    const GovernorStats& g = st.governor;
    out += "governor: trips=" + std::to_string(g.trips()) +
           " deadline=" + std::to_string(g.deadline_trips) +
           " budget=" + std::to_string(g.budget_trips) +
           " cancel=" + std::to_string(g.cancel_trips) +
           " alternatives=" + std::to_string(g.alternatives_charged);
    if (g.retries_charged > 0) {
      out += " retries=" + std::to_string(g.retries_charged);
    }
    out += "\n";
  }
  int dop = PlanMaxDop(*r.optimized.plan);
  if (dop > 1) {
    int batch = options_.exec.batch_size > 0
                    ? options_.exec.batch_size
                    : std::max(1, store_.timing().exec_batch_size);
    out += "exec: batch=" + std::to_string(batch) +
           " dop=" + std::to_string(dop) + "\n";
  }
  return out;
}

Result<std::string> Session::Explain(const std::string& zql) {
  OODB_ASSIGN_OR_RETURN(SessionResult r, Prepare(zql));
  return ExplainHeader(r) +
         PrintPlan(*r.optimized.plan, r.ctx, /*with_costs=*/true);
}

Result<std::string> Session::ExplainAnalyze(const std::string& zql) {
  OODB_ASSIGN_OR_RETURN(SessionResult r, Prepare(zql));
  SessionMetrics::Get().analyzes->Increment();
  // Caller-owned profile: if execution fails mid-plan (governor trip,
  // injected fault), ExecutePlan returns only the error Status, but the
  // operators already recorded into this collector — render what ran.
  ExecProfile profile;
  Result<ExecStats> stats = ExecuteWithRetry(&r, &profile);
  if (!stats.ok()) CountError(stats.status().code());
  if (stats.ok()) MaybeAdapt(&r, profile);

  std::string out = ExplainHeader(r);
  out += RenderRetryTrail(r.attempts);
  if (r.replans > 0 && r.feedback != nullptr) {
    out += "replan: " + r.feedback->Summary() + "\n";
  }
  if (r.auto_analyzed) {
    out += "adaptive: drift=" + FormatDouble(r.observed_drift, 2) +
           "x analyze=triggered\n";
  }
  if (!stats.ok()) {
    out += "exec: FAILED(" + stats.status().ToString() + ")";
    if (governor_ != nullptr) {
      // ExecutePlan only returns a Status on failure; the live governor
      // still knows what the partial run charged.
      const GovernorStats g = governor_->stats();
      out += " governor_rows=" + std::to_string(g.rows_charged) +
             " governor_pages=" + std::to_string(g.pages_charged);
    }
    out += "\n";
  }
  out += RenderAnalyzedPlan(*r.optimized.plan, r.ctx, profile);
  if (stats.ok()) {
    out += "analyzed: rows=" + std::to_string(stats->rows) +
           " sim_io=" + FormatDouble(stats->sim_io_s, 6) +
           "s sim_cpu=" + FormatDouble(stats->sim_cpu_s, 6) +
           "s pages=" + std::to_string(stats->pages_read) +
           " max_drift=" +
           FormatDouble(MaxDriftRatio(*r.optimized.plan, profile), 2) + "x";
    if (governor_ != nullptr) {
      out += " governor_rows=" + std::to_string(stats->governor.rows_charged) +
             " governor_pages=" +
             std::to_string(stats->governor.pages_charged);
    }
    out += "\n";
  }
  return out;
}

}  // namespace oodb
