// Batch-execution throughput: real (wall-clock) rows/sec of a deep
// scan -> filter -> hash-join -> project -> sort pipeline over the OO7
// workload, across the batch-size x DOP grid {1, 64, 1024} x {1, 2, 4}.
//
// batch=1 / dop=1 reproduces the tuple-at-a-time era exactly (one virtual
// Next per operator per row, per-row clock and governor charges); larger
// batches amortize that per-call overhead across up to 1024 rows, and
// Exchange adds worker-pool parallelism on top. The acceptance claim under
// test: batch 1024 / DOP 4 sustains >= 3x the rows/sec of batch 1 / DOP 1.
//
// A second phase runs a highly selective variant of the same pipeline
// (~1% of atomic parts survive the scan filter), batch 1024, at DOP 1 and
// DOP 4, and reports one rate per DOP; the regression gate holds each to
// the committed baseline.
//
// A third phase exercises order as a physical property: a full ORDER BY
// over the atomic parts (serial Sort vs. order-preserving merging Exchange
// at DOP 4) and the same query with LIMIT 10 (TopK vs. full Sort). Both
// claims are gated on *deterministic* simulated seconds, not wall clock:
// the merging Exchange's costed response time must be >= 2x better than the
// serial sorted plan's, and the executed simulated time of the TopK plan
// must be >= 5x better than the full Sort's at k=10. (Executed simulated
// seconds sum per-worker clocks — total work, not response time — so the
// DOP-4 claim uses the response-time cost the Exchange node advertises,
// which the executed totals then keep honest via the regression gate.)
// Beside the costed speedup it prints the sort's executed wall time at DOP 1
// and DOP 4 (best of 5), ungated, so the speedup is also seen in execution.
//
// Results are printed as a table and written to BENCH_exec.json in the
// current directory ({"grid": [...], "speedup_batch1024_dop4": S,
// "selective": [...], "ordered": [...], "speedup_merge_costed_dop4": M,
// "speedup_topk_vs_sort_sim": T}).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/oodb.h"
#include "src/workloads/oo7.h"

namespace oodb {
namespace {

Oo7Options BenchConfig() {
  Oo7Options o;
  o.num_composite_parts = 400;
  o.atomic_per_composite = 120;  // 48000 atomic parts through the pipeline
  o.complex_per_module = 4;
  o.base_per_complex = 8;
  o.num_build_dates = 10;
  return o;
}

/// The measured pipeline: FileScan(AtomicParts) -> Filter -> HybridHashJoin
/// (build CompositeParts) -> Project -> Sort.
constexpr const char* kPipeline =
    "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
    "CompositePart p IN CompositeParts "
    "WHERE a.partOf == p && a.x > 100 && a.y < 900 && p.buildDate >= 2;";

/// The selective variant: the same shape, but the scan filter keeps ~1 in
/// 10^4 of the x/y grid, so nearly all filter work is rejection — the case
/// selection-vector kernels are built for.
constexpr const char* kSelective =
    "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
    "CompositePart p IN CompositeParts "
    "WHERE a.partOf == p && a.x > 990 && a.y < 10 && p.buildDate >= 2;";

/// The ordered phase: every atomic part, totally ordered by a non-unique
/// key with the unique id as tie-break, so serial and merged plans must
/// agree on the exact sequence. The LIMIT 10 variant turns the Sort
/// enforcer into a bounded-heap TopK.
constexpr const char* kOrderedSort =
    "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
    "WHERE a.x >= 0 ORDER BY a.buildDate, a.id;";
constexpr const char* kOrderedTopK =
    "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
    "WHERE a.x >= 0 ORDER BY a.buildDate, a.id LIMIT 10;";

struct Measured {
  int batch;
  int dop;
  int64_t rows;
  double rows_per_sec;
};

int MaxDopOf(const PlanNode& node) {
  int dop = node.op.kind == PhysOpKind::kExchange ? node.op.dop : 1;
  for (const PlanNodePtr& c : node.children) {
    dop = std::max(dop, MaxDopOf(*c));
  }
  return dop;
}

const PlanNode* FindMergeExchange(const PlanNode& node) {
  if (node.op.kind == PhysOpKind::kExchange && node.op.merge) return &node;
  for (const PlanNodePtr& c : node.children) {
    if (const PlanNode* found = FindMergeExchange(*c)) return found;
  }
  return nullptr;
}

/// A parsed + optimized ordered query; the context owns the bindings the
/// plan references, so both travel together.
struct OrderedPlan {
  QueryContext ctx;
  LogicalExprPtr logical;
  PlanNodePtr plan;
};

bool PlanOrdered(const char* text, Catalog* catalog, int max_dop,
                 OrderedPlan* out) {
  out->ctx.catalog = catalog;
  SortSpec order;
  int64_t limit = 0;
  auto logical = ParseAndSimplify(text, &out->ctx, &order, &limit);
  if (!logical.ok()) {
    std::fprintf(stderr, "parse: %s\n", logical.status().ToString().c_str());
    return false;
  }
  out->logical = *logical;
  OptimizerOptions opts;
  opts.max_dop = max_dop;
  PhysProps required;
  required.sort = order;
  required.limit = limit;
  Optimizer opt(catalog, std::move(opts));
  auto planned = opt.Optimize(*out->logical, &out->ctx, required);
  if (!planned.ok()) {
    std::fprintf(stderr, "optimize: %s\n",
                 planned.status().ToString().c_str());
    return false;
  }
  out->plan = planned->plan;
  return true;
}

/// Warm up once, then repeat until enough wall time has elapsed for a
/// stable rate (each run cold-starts the buffer pool, so repetitions are
/// identical work). Two measurement passes, best rate kept: on a shared
/// host the minimum time is the signal and the excursions are scheduler
/// noise. Returns rows/sec, or a negative value on failure.
double MeasureRate(const PlanNode& plan, ObjectStore* store, QueryContext* ctx,
                   const ExecOptions& eo, int64_t* rows_out) {
  auto warm = ExecutePlan(plan, store, ctx, eo);
  if (!warm.ok()) {
    std::fprintf(stderr, "execute: %s\n", warm.status().ToString().c_str());
    return -1.0;
  }
  *rows_out = warm->rows;
  double best = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    int reps = 0;
    double elapsed = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    do {
      auto r = ExecutePlan(plan, store, ctx, eo);
      if (!r.ok()) {
        std::fprintf(stderr, "execute: %s\n", r.status().ToString().c_str());
        return -1.0;
      }
      ++reps;
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    } while (elapsed < 0.5 || reps < 3);
    best = std::max(best, static_cast<double>(*rows_out) * reps / elapsed);
  }
  return best;
}

}  // namespace

int Main() {
  auto made = MakeOo7(BenchConfig());
  if (!made.ok()) {
    std::fprintf(stderr, "oo7 setup: %s\n", made.status().ToString().c_str());
    return 1;
  }
  Oo7Instance instance = std::move(made).value();
  ObjectStore& store = *instance.store;
  Catalog& catalog = instance.db->catalog;

  std::vector<Measured> grid;
  for (int dop : {1, 2, 4}) {
    QueryContext ctx;
    ctx.catalog = &catalog;
    SortSpec order;
    auto logical = ParseAndSimplify(kPipeline, &ctx, &order);
    if (!logical.ok()) {
      std::fprintf(stderr, "parse: %s\n",
                   logical.status().ToString().c_str());
      return 1;
    }
    OptimizerOptions opts;
    opts.max_dop = dop;
    PhysProps required;
    required.sort = order;
    Optimizer opt(&catalog, std::move(opts));
    auto planned = opt.Optimize(**logical, &ctx, required);
    if (!planned.ok()) {
      std::fprintf(stderr, "optimize: %s\n",
                   planned.status().ToString().c_str());
      return 1;
    }
    int planted = MaxDopOf(*planned->plan);

    for (int batch : {1, 64, 1024}) {
      ExecOptions eo;
      eo.batch_size = batch;
      eo.sample_limit = 0;  // measure the pipeline, not result retention

      int64_t rows = 0;
      double rate = MeasureRate(*planned->plan, &store, &ctx, eo, &rows);
      if (rate < 0.0) return 1;
      grid.push_back({batch, dop, rows, rate});
      std::printf("batch=%-5d dop=%d (planted %d)  rows=%-6lld  %12.0f rows/sec\n",
                  batch, dop, planted, static_cast<long long>(rows), rate);
      std::fflush(stdout);
    }
  }

  double base = 0.0, best = 0.0;
  for (const Measured& m : grid) {
    if (m.batch == 1 && m.dop == 1) base = m.rows_per_sec;
    if (m.batch == 1024 && m.dop == 4) best = m.rows_per_sec;
  }
  double speedup = base > 0.0 ? best / base : 0.0;
  std::printf("\nspeedup batch1024/dop4 vs batch1/dop1: %.2fx\n\n", speedup);

  // --- Selective phase: batch 1024, one rate per DOP. ---
  struct SelMeasured {
    int dop;
    int64_t rows;
    double rows_per_sec;
  };
  std::vector<SelMeasured> sel;
  for (int dop : {1, 4}) {
    QueryContext ctx;
    ctx.catalog = &catalog;
    SortSpec order;
    auto logical = ParseAndSimplify(kSelective, &ctx, &order);
    if (!logical.ok()) {
      std::fprintf(stderr, "parse: %s\n", logical.status().ToString().c_str());
      return 1;
    }
    OptimizerOptions opts;
    opts.max_dop = dop;
    PhysProps required;
    required.sort = order;
    Optimizer opt(&catalog, std::move(opts));
    auto planned = opt.Optimize(**logical, &ctx, required);
    if (!planned.ok()) {
      std::fprintf(stderr, "optimize: %s\n",
                   planned.status().ToString().c_str());
      return 1;
    }
    ExecOptions eo;
    eo.batch_size = 1024;
    eo.sample_limit = 0;
    int64_t rows = 0;
    double rate = MeasureRate(*planned->plan, &store, &ctx, eo, &rows);
    if (rate < 0.0) return 1;
    sel.push_back({dop, rows, rate});
    std::printf("selective dop=%d  rows=%-6lld  %12.0f rows/sec\n", dop,
                static_cast<long long>(rows), rate);
    std::fflush(stdout);
  }

  // --- Ordered phase: order as a physical property. Both claims are gated
  // on deterministic simulated seconds (see the file comment), so these
  // points never flake on a busy host. ---
  struct OrdMeasured {
    const char* phase;
    int dop;
    int64_t rows;
    double sim_s;     // executed simulated seconds: total work
    double costed_s;  // optimizer's anticipated response time
    double wall_ms;   // best executed wall time (sort phase only; else 0)
  };
  std::vector<OrdMeasured> ordered;
  for (const char* phase : {"sort", "topk"}) {
    const char* text =
        std::string(phase) == "sort" ? kOrderedSort : kOrderedTopK;
    for (int dop : {1, 4}) {
      OrderedPlan op;
      if (!PlanOrdered(text, &catalog, dop, &op)) return 1;
      if (std::string(phase) == "sort" && dop == 1 &&
          CountOps(*op.plan, PhysOpKind::kSort) == 0) {
        std::fprintf(stderr, "ordered: serial plan lost its Sort enforcer\n");
        return 1;
      }
      if (std::string(phase) == "topk" &&
          CountOps(*op.plan, PhysOpKind::kTopK) != 1) {
        std::fprintf(stderr, "ordered: LIMIT plan did not plant a TopK\n");
        return 1;
      }
      if (dop == 4 && FindMergeExchange(*op.plan) == nullptr) {
        std::fprintf(stderr,
                     "ordered: dop-4 plan did not plant a merging Exchange\n");
        return 1;
      }
      ExecOptions eo;
      eo.batch_size = 1024;
      eo.sample_limit = 0;
      auto run = ExecutePlan(*op.plan, &store, &op.ctx, eo);
      if (!run.ok()) {
        std::fprintf(stderr, "execute: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      double costed = op.plan->total_cost.io_s + op.plan->total_cost.cpu_s;
      double wall_ms = 0.0;
      if (std::string(phase) == "sort") {
        for (int rep = 0; rep < 5; ++rep) {
          auto t0 = std::chrono::steady_clock::now();
          auto timed = ExecutePlan(*op.plan, &store, &op.ctx, eo);
          double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
          if (!timed.ok()) {
            std::fprintf(stderr, "execute: %s\n",
                         timed.status().ToString().c_str());
            return 1;
          }
          wall_ms = rep == 0 ? ms : std::min(wall_ms, ms);
        }
      }
      ordered.push_back(
          {phase, dop, run->rows, run->sim_total_s(), costed, wall_ms});
      std::printf(
          "ordered %-4s dop=%d  rows=%-6lld  sim %10.3fs  costed %10.3fs",
          phase, dop, static_cast<long long>(run->rows), run->sim_total_s(),
          costed);
      if (wall_ms > 0.0) std::printf("  wall %8.3fms", wall_ms);
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  auto ord_point = [&ordered](const char* phase, int dop) -> const OrdMeasured& {
    for (const OrdMeasured& m : ordered) {
      if (std::string(m.phase) == phase && m.dop == dop) return m;
    }
    static OrdMeasured none{"", 0, 0, 0.0, 0.0, 0.0};
    return none;
  };
  const OrdMeasured& sort1 = ord_point("sort", 1);
  const OrdMeasured& sort4 = ord_point("sort", 4);
  const OrdMeasured& topk1 = ord_point("topk", 1);
  double merge_costed =
      sort4.costed_s > 0.0 ? sort1.costed_s / sort4.costed_s : 0.0;
  double topk_sim = topk1.sim_s > 0.0 ? sort1.sim_s / topk1.sim_s : 0.0;
  double merge_wall =
      sort4.wall_ms > 0.0 ? sort1.wall_ms / sort4.wall_ms : 0.0;
  std::printf("\nspeedup merge-Exchange vs serial sort (costed, dop 4): %.2fx\n",
              merge_costed);
  std::printf(
      "speedup merge-Exchange vs serial sort (executed wall, best of 5, "
      "dop 4): %.2fx (not gated)\n",
      merge_wall);
  std::printf("speedup TopK k=10 vs full Sort (simulated, dop 1): %.2fx\n",
              topk_sim);

  std::FILE* json = std::fopen("BENCH_exec.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_exec.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"pipeline\": \"scan-filter-hashjoin-project-sort\",\n");
  std::fprintf(json, "  \"grid\": [\n");
  for (size_t i = 0; i < grid.size(); ++i) {
    const Measured& m = grid[i];
    std::fprintf(json,
                 "    {\"batch\": %d, \"dop\": %d, \"rows\": %lld, "
                 "\"rows_per_sec\": %.0f}%s\n",
                 m.batch, m.dop, static_cast<long long>(m.rows),
                 m.rows_per_sec, i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"speedup_batch1024_dop4\": %.2f,\n", speedup);
  std::fprintf(json, "  \"selective\": [\n");
  for (size_t i = 0; i < sel.size(); ++i) {
    const SelMeasured& m = sel[i];
    std::fprintf(json,
                 "    {\"dop\": %d, \"rows\": %lld, \"rows_per_sec\": %.0f}%s\n",
                 m.dop, static_cast<long long>(m.rows), m.rows_per_sec,
                 i + 1 < sel.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"ordered\": [\n");
  for (size_t i = 0; i < ordered.size(); ++i) {
    const OrdMeasured& m = ordered[i];
    std::fprintf(json,
                 "    {\"phase\": \"%s\", \"dop\": %d, \"rows\": %lld, "
                 "\"sim_s\": %.6f, \"costed_s\": %.6f}%s\n",
                 m.phase, m.dop, static_cast<long long>(m.rows), m.sim_s,
                 m.costed_s, i + 1 < ordered.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"speedup_merge_costed_dop4\": %.2f,\n", merge_costed);
  std::fprintf(json, "  \"speedup_topk_vs_sort_sim\": %.2f\n}\n", topk_sim);
  std::fclose(json);
  std::printf("wrote BENCH_exec.json\n");
  if (speedup < 3.0) return 2;
  if (merge_costed < 2.0) return 2;
  if (topk_sim < 5.0) return 2;
  return 0;
}

}  // namespace oodb

int main() { return oodb::Main(); }
