// Session: the convenience facade bundling a catalog, an object store, and
// an optimizer into a queryable "database" — parse, simplify, optimize, and
// execute in one call. Optionally serves repeated queries from a plan cache
// (private or shared between sessions) keyed by canonical fingerprint and
// catalog statistics version.
#ifndef OODB_SESSION_H_
#define OODB_SESSION_H_

#include <memory>
#include <string>

#include "src/catalog/analyze.h"
#include "src/exec/executor.h"
#include "src/optimizer.h"
#include "src/optimizer/plan_cache.h"
#include "src/query/simplify.h"
#include "src/trace/card_feedback.h"

namespace oodb {

/// Query-level execution retry (Session::Options::retry), the engine's only
/// fault-recovery layer: an Exchange runs each partition once, so a worker
/// fault fails the whole execution and recovery re-runs the statement.
/// Inert by default (one attempt, exactly the seed execution path). When
/// armed, a retryable execution failure (kWorkerFault / kStorageFault — see
/// IsRetryableExecFault) triggers re-execution down a degradation ladder:
///   attempt 0: planned (the optimized plan, as configured)
///   attempt 1: serial (StripExchanges: the plan without its Exchanges)
///   attempt 2+: greedy-baseline re-plan (no Exchange), verified like the
///               optimizer's plans under verify_plans
/// Each retry is charged to the governor's retry budget; a tripped budget
/// or a non-retryable failure ends the ladder with that typed Status.
struct RetryPolicy {
  /// Total attempts, including the first. 1 = no retry (seed behavior).
  int max_attempts = 1;
  /// Walk the degradation ladder across attempts. False: every attempt
  /// re-runs the original configuration (pure retry).
  bool degrade = true;

  bool enabled() const { return max_attempts > 1; }
};

/// Drift-driven adaptation (Session::Options::adaptive). Inert by default:
/// every threshold 0 means no drift checks and no auto-ANALYZE — exactly the
/// seed behavior. Two layers, armed independently:
///   - replan_drift_threshold: mid-query re-optimization. Pipeline-breaker
///     inputs (hash-join build, Sort/TopK input) abort with kPlanDrift when
///     actual rows drift past the estimate by this factor; the session
///     extracts CardFeedback from the partial profile, re-enters the memo
///     with observed cardinalities, and re-executes the corrected plan. The
///     re-plan rides the retry trail (SessionResult::attempts) and is
///     charged to the governor's retry budget.
///   - analyze_drift_threshold: past this drift, the session triggers a
///     rate-limited ANALYZE of the store (charged to the statement's
///     governor), bumping the stats version and invalidating *all* plans
///     costed under the stale statistics.
struct AdaptiveOptions {
  /// Mid-query re-plan trigger factor (0 = off). A pipeline-breaker input
  /// whose actual rows exceed the estimate by this factor (or undershoot it
  /// at EOS) aborts the suffix and re-plans with observed cardinalities.
  double replan_drift_threshold = 0.0;
  /// Mid-query re-plans allowed per statement. The re-executed plan runs
  /// with drift checks disarmed once the budget is spent, so a statement
  /// always terminates.
  int max_replans = 1;
  /// Post-execution drift past which an automatic ANALYZE refreshes catalog
  /// statistics (0 = off).
  double analyze_drift_threshold = 0.0;
  /// Rate limit for auto-ANALYZE: at least this many executed statements
  /// between runs (counted, not timed, for determinism).
  int analyze_cooldown = 8;
  /// Options for the triggered ANALYZE (its governor field is overwritten
  /// with the statement's governor).
  AnalyzeOptions analyze;

  /// The post-execution layer armed (requires a profile even on Query).
  bool feedback_enabled() const { return analyze_drift_threshold > 0.0; }
  bool replan_enabled() const {
    return replan_drift_threshold > 0.0 && max_replans > 0;
  }
  bool enabled() const { return feedback_enabled() || replan_enabled(); }
};

/// One execution attempt's outcome in the Session retry trail: the ladder
/// step it ran at, its terminal status (OK on success) and the faults it
/// observed. Rendered by EXPLAIN ANALYZE so a recovered query's history is
/// visible on the final profile.
struct ExecAttempt {
  int attempt = 0;
  std::string step;  ///< "planned" | "serial" | "greedy"
  Status status = Status::OK();
  int64_t faults_injected = 0;
  /// This attempt ran a plan re-optimized from the previous attempt's
  /// observed cardinalities (mid-query re-planning).
  bool replanned = false;
  /// Simulated seconds this attempt consumed (partial on an aborted
  /// attempt) — the honest total-work accounting across re-plans.
  double sim_s = 0.0;
};

/// The result of Session::Query: the plan, its anticipated cost, and the
/// executed rows/statistics.
struct SessionResult {
  QueryContext ctx;  ///< bindings (needed to render plan/exprs)
  LogicalExprPtr logical;
  /// Physical properties the statement requires (ORDER BY sort, LIMIT row
  /// count). Kept so the retry ladder's greedy re-plan preserves them.
  PhysProps required;
  OptimizedQuery optimized;
  ExecStats exec;
  /// Execution attempt history (one entry per attempt; a single OK entry on
  /// the clean path). Empty when the statement was only prepared.
  std::vector<ExecAttempt> attempts;
  /// Cardinality feedback the final plan was optimized with (null unless a
  /// mid-query re-plan happened). Owns the object ctx.feedback points at.
  std::shared_ptr<const CardFeedback> feedback;
  /// Mid-query re-optimizations performed for this statement.
  int replans = 0;
  /// Worst cardinality drift observed on the executed plan (meaningful
  /// after Query / ExplainAnalyze when auto-ANALYZE is armed).
  double observed_drift = 1.0;
  bool auto_analyzed = false;

  std::string PlanText(bool with_costs = false) const {
    return PrintPlan(*optimized.plan, ctx, with_costs);
  }
  const std::vector<std::vector<Value>>& rows() const {
    return exec.sample_rows;
  }
};

/// A queryable database session. Owns the store; the catalog is shared and
/// may be updated (Analyze, index toggles) between queries.
class Session {
 public:
  struct Options {
    OptimizerOptions optimizer;
    StoreOptions store;
    ExecOptions exec;
    /// Per-query resource limits (deadline, budgets, cancellation). The
    /// default is inert: no governor is constructed and every code path is
    /// identical to the ungoverned seed. When any limit is set, each
    /// Prepare/Query arms a fresh QueryGovernor spanning optimization and
    /// (for Query) execution; optimizer-side trips degrade to the greedy
    /// baseline planner when `governor.degrade_to_greedy` is true.
    GovernorOptions governor;
    /// Query-level execution retry and degradation ladder. Inert by
    /// default (single attempt).
    RetryPolicy retry;
    /// Drift-driven adaptation: mid-query re-planning and auto-ANALYZE.
    /// Inert by default.
    AdaptiveOptions adaptive;
    /// A plan cache shared with other sessions over the *same catalog*
    /// (the throughput path for concurrent multi-session traffic). When
    /// null and optimizer.plan_cache_capacity > 0, the session creates a
    /// private cache of that capacity on first use.
    std::shared_ptr<PlanCache> plan_cache;

    Options() { exec.sample_limit = 1000; }  // keep whole result sets
  };

  explicit Session(Catalog* catalog, Options options = {})
      : catalog_(catalog), options_(std::move(options)),
        store_(catalog, options_.store) {}

  ObjectStore& store() { return store_; }
  Catalog& catalog() { return *catalog_; }
  Options& options() { return options_; }

  /// The cache this session consults, or null when caching is off.
  PlanCache* plan_cache();

  /// Parses, simplifies, and optimizes a ZQL query without executing it —
  /// serving the plan from the cache when possible (exec stats stay empty).
  Result<SessionResult> Prepare(const std::string& zql);

  /// Parses, simplifies, optimizes, and executes a ZQL query.
  Result<SessionResult> Query(const std::string& zql);

  /// Optimizes without executing; returns the rendered plan with costs,
  /// annotated with `plan: cached` and the cache counters when the plan
  /// cache served or recorded it.
  Result<std::string> Explain(const std::string& zql);

  /// EXPLAIN ANALYZE: optimizes *and executes* the query with per-operator
  /// runtime counters, then renders the plan annotated with estimated vs
  /// actual cardinality (drift ratio), batches, simulated CPU/I/O seconds,
  /// pages and buffer traffic, and per-worker utilization under Exchange.
  /// When execution fails mid-plan (governor trip, injected storage fault)
  /// the partial profile is still rendered, prefixed with an
  /// `exec: FAILED(...)` line.
  Result<std::string> ExplainAnalyze(const std::string& zql);

  /// Refreshes the catalog's statistics from the stored data (bumps the
  /// catalog stats_version, invalidating cached plans).
  Status Analyze(AnalyzeOptions options = {}) {
    return AnalyzeStore(store_, catalog_, options);
  }

 private:
  /// Runs the cost-based optimizer under the active governor; on an
  /// optimizer budget/deadline trip with degradation enabled, re-plans with
  /// the greedy baseline and marks the result degraded.
  Result<OptimizedQuery> RunOptimizer(const LogicalExpr& input,
                                      QueryContext* ctx,
                                      const PhysProps& required);

  /// The greedy baseline's plan for `input`, marked degraded for `reason`
  /// and, under OptimizerOptions::verify_plans, verified like the
  /// optimizer's own plans. Shared by the governor fallback and the retry
  /// ladder's last rung, so every greedy plan the Session runs is checked.
  Result<OptimizedQuery> GreedyPlan(const LogicalExpr& input,
                                    QueryContext* ctx,
                                    const PhysProps& required,
                                    std::string reason);

  /// The annotation lines shared by Explain and ExplainAnalyze (degraded /
  /// cached / verify / cache counters / governor / exec batch+dop).
  std::string ExplainHeader(const SessionResult& r);

  /// Executes `r`'s plan under options_.retry: re-attempts retryable
  /// failures down the degradation ladder (see RetryPolicy), recording the
  /// per-attempt trail on r->attempts. When `profile` is non-null each
  /// attempt records into a private ExecProfile and only the *final*
  /// attempt's profile is merged into `profile` (earlier attempts would
  /// double-count operators). A greedy-step success replaces r->optimized
  /// with the greedy plan (marked degraded) so the rendered plan is the one
  /// that actually produced the rows.
  Result<ExecStats> ExecuteWithRetry(SessionResult* r, ExecProfile* profile);

  /// Mid-query re-plan: extracts CardFeedback from the aborted attempt's
  /// partial profile and re-optimizes under it, replacing r->optimized.
  /// Feedback plans never enter the plan cache (RunOptimizer does not
  /// insert; only Prepare does). Fails when the profile yielded no usable
  /// feedback or the re-optimization itself failed; the caller then disarms
  /// drift checks and re-executes the original plan.
  Status ReplanWithFeedback(SessionResult* r, const ExecProfile& profile);

  /// Post-execution adaptation: triggers the rate-limited auto-ANALYZE when
  /// the statement's observed drift passes analyze_drift_threshold.
  void MaybeAdapt(SessionResult* r, const ExecProfile& profile);

  Catalog* catalog_;
  Options options_;
  ObjectStore store_;
  std::shared_ptr<PlanCache> own_cache_;
  /// Governor for the query currently being prepared/executed; rebuilt at
  /// each Prepare when options_.governor is enabled, null otherwise.
  std::unique_ptr<QueryGovernor> governor_;
  /// Statements executed since the last auto-ANALYZE (the deterministic
  /// cooldown clock). Seeded to the cooldown so the first trigger is
  /// immediate.
  int64_t executed_since_analyze_ = 1 << 20;
};

}  // namespace oodb

#endif  // OODB_SESSION_H_
