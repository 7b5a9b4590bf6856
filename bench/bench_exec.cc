// Ordered execution: order as a physical property over the OO7 workload.
// A full ORDER BY over the atomic parts (serial Sort vs. order-preserving
// merging Exchange at DOP 4) and the same query with LIMIT 10 (TopK vs.
// full Sort). Both claims are gated on *deterministic* simulated seconds,
// not wall clock: the merging Exchange's costed response time must be >= 2x
// better than the serial sorted plan's, and the executed simulated time of
// the TopK plan must be >= 5x better than the full Sort's at k=10.
// (Executed simulated seconds sum per-worker clocks — total work, not
// response time — so the DOP-4 claim uses the response-time cost the
// Exchange node advertises, which the executed totals then keep honest via
// the regression gate.) Beside the costed speedup it prints the sort's
// executed wall time at DOP 1 and DOP 4 (best of 5), ungated, so the
// speedup is also seen in execution.
//
// Results are printed as a table and written to BENCH_exec.json in the
// current directory ({"ordered": [...], "speedup_merge_costed_dop4": M,
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
  o.atomic_per_composite = 120;  // 48000 atomic parts ordered
  o.complex_per_module = 4;
  o.base_per_complex = 8;
  o.num_build_dates = 10;
  return o;
}

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

  // Both claims are gated on deterministic simulated seconds (see the file
  // comment), so these points never flake on a busy host.
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
  std::fprintf(json, "{\n");
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
  if (merge_costed < 2.0) return 2;
  if (topk_sim < 5.0) return 2;
  return 0;
}

}  // namespace oodb

int main() { return oodb::Main(); }
