// E12 — optimizer performance (google-benchmark): the paper's §1 goal that
// "moderately complex queries should be optimized on today's workstations
// in less than 1 sec". Measures full optimization (simplified input ->
// plan) for each paper query plus a wider 5-range join query, and the
// parse+simplify front end.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "src/oodb.h"
#include "src/workloads/paper_queries.h"

namespace oodb {
namespace {

const PaperDb& Db() {
  static PaperDb db = MakePaperCatalog();
  return db;
}

/// Asserts the paper's §1 performance goal on the measured wall clock
/// (SearchStats::optimize_seconds, steady_clock inside the search engine):
/// exceeding 1 sec fails the benchmark instead of relying on eyeballing.
void CheckUnderOneSecond(benchmark::State& state, double max_optimize_s) {
  state.counters["optimize_wall_s_max"] = max_optimize_s;
  if (max_optimize_s >= 1.0) {
    state.SkipWithError(("optimize wall clock " +
                         std::to_string(max_optimize_s) +
                         "s breaks the paper's <1 sec goal")
                            .c_str());
  }
}

void BM_OptimizePaperQuery(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  double max_optimize_s = 0.0;
  for (auto _ : state) {
    QueryContext ctx;
    auto logical = BuildPaperQuery(n, Db(), &ctx);
    Optimizer opt(&Db().catalog);
    auto r = opt.Optimize(**logical, &ctx);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    max_optimize_s = std::max(max_optimize_s, r->stats.optimize_seconds);
    benchmark::DoNotOptimize(r);
  }
  CheckUnderOneSecond(state, max_optimize_s);
}
BENCHMARK(BM_OptimizePaperQuery)->DenseRange(1, 4);

void BM_OptimizeComplexQuery(benchmark::State& state) {
  double max_optimize_s = 0.0;
  for (auto _ : state) {
    QueryContext ctx;
    ctx.catalog = &Db().catalog;
    auto logical = ParseAndSimplify(kComplexQueryText, &ctx);
    if (!logical.ok()) state.SkipWithError(logical.status().ToString().c_str());
    Optimizer opt(&Db().catalog);
    auto r = opt.Optimize(**logical, &ctx);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    max_optimize_s = std::max(max_optimize_s, r->stats.optimize_seconds);
    benchmark::DoNotOptimize(r);
  }
  CheckUnderOneSecond(state, max_optimize_s);
}
BENCHMARK(BM_OptimizeComplexQuery);

void BM_ParseAndSimplify(benchmark::State& state) {
  for (auto _ : state) {
    QueryContext ctx;
    ctx.catalog = &Db().catalog;
    auto logical = ParseAndSimplify(kQuery1Text, &ctx);
    benchmark::DoNotOptimize(logical);
  }
}
BENCHMARK(BM_ParseAndSimplify);

void BM_GreedyPlanQuery4(benchmark::State& state) {
  for (auto _ : state) {
    QueryContext ctx;
    auto logical = BuildPaperQuery(4, Db(), &ctx);
    GreedyOptimizer greedy(&Db().catalog);
    auto r = greedy.Optimize(**logical, &ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GreedyPlanQuery4);

/// Optimizes `text` repeatedly; reports the memo size and the rule outputs
/// that were already in it, and holds the query to the paper's <1 sec goal
/// like the other optimize benchmarks.
void OptimizeText(benchmark::State& state, const std::string& text) {
  double max_optimize_s = 0.0;
  SearchStats stats;
  for (auto _ : state) {
    QueryContext ctx;
    ctx.catalog = &Db().catalog;
    auto logical = ParseAndSimplify(text, &ctx);
    if (!logical.ok()) {
      state.SkipWithError(logical.status().ToString().c_str());
      break;
    }
    Optimizer opt(&Db().catalog);
    auto r = opt.Optimize(**logical, &ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    max_optimize_s = std::max(max_optimize_s, r->stats.optimize_seconds);
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  state.counters["groups"] = stats.groups;
  state.counters["logical_mexprs"] = stats.logical_mexprs;
  state.counters["duplicates"] = stats.duplicates;
  CheckUnderOneSecond(state, max_optimize_s);
}

// Exploration growth: join chains of increasing width (stress of the memo
// and the join-order rule).
void BM_OptimizeJoinChain(benchmark::State& state) {
  OptimizeText(state, JoinChainQueryText(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_OptimizeJoinChain)->DenseRange(2, 8);

// Paths in a join chain: every Mat that mat-to-join turns into a join adds
// a range to reorder. Arg 0 is the 4-range chain with `e1.dept.floor == 3`
// and `e2.job.name == "x"` (the two-path query), arg 1 the 5-range chain
// with `e1.dept.floor == 3`.
void BM_OptimizePathJoin(benchmark::State& state) {
  OptimizeText(state, state.range(0) == 0 ? JoinChainQueryText(4, 2)
                                          : JoinChainQueryText(5, 1));
}
BENCHMARK(BM_OptimizePathJoin)->DenseRange(0, 1);

// Employee self-joins on name with every range filtered by an age literal
// (the paper-search benchmark's 2- and 3-range classes, and the 4-range
// case): each range's filter is one canonical Select.
void BM_OptimizeLiteralJoin(benchmark::State& state) {
  static const int kAges[] = {31, 44, 52, 60};
  const int width = static_cast<int>(state.range(0));
  std::string from, where;
  for (int i = 1; i <= width; ++i) {
    std::string e = "e" + std::to_string(i);
    from += (i > 1 ? ", Employee " : "Employee ") + e + " IN Employees";
    if (i > 1) {
      where += "e" + std::to_string(i - 1) + ".name == " + e + ".name && ";
    }
  }
  for (int i = 1; i <= width; ++i) {
    where += "e" + std::to_string(i) + ".age == " +
             std::to_string(kAges[i - 1]) + (i < width ? " && " : "");
  }
  OptimizeText(state, "SELECT e1.name, e" + std::to_string(width) +
                          ".age FROM " + from + " WHERE " + where + ";");
}
BENCHMARK(BM_OptimizeLiteralJoin)->DenseRange(2, 4);

// Post-optimization static verification (memo + plan walks) is on by
// default in Debug builds; it must stay cheap enough to leave there. This
// benchmark optimizes the four paper queries with verification off and on,
// interleaved so clock drift hits both passes equally, and fails if the
// verified pass costs more than 5% extra optimize wall time.
void BM_VerifyOverhead(benchmark::State& state) {
  double verified_s = 0.0;
  double plain_s = 0.0;
  for (auto _ : state) {
    for (int pass = 0; pass < 2; ++pass) {
      OptimizerOptions opts;
      opts.verify_plans = pass == 1;
      for (int n = 1; n <= 4; ++n) {
        QueryContext ctx;
        auto logical = BuildPaperQuery(n, Db(), &ctx);
        Optimizer opt(&Db().catalog, opts);
        auto r = opt.Optimize(**logical, &ctx);
        if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
        (pass == 1 ? verified_s : plain_s) += r->stats.optimize_seconds;
      }
    }
  }
  double overhead = plain_s > 0.0 ? (verified_s - plain_s) / plain_s : 0.0;
  state.counters["verify_overhead_pct"] = 100.0 * overhead;
  // Only assert once enough optimize time accumulated for the ratio to be
  // signal rather than scheduler noise.
  if (plain_s > 0.05 && overhead > 0.05) {
    state.SkipWithError(("plan verification adds " +
                         std::to_string(100.0 * overhead) +
                         "% optimize-time overhead (budget: 5%)")
                            .c_str());
  }
}
BENCHMARK(BM_VerifyOverhead)->MinTime(0.2);

}  // namespace
}  // namespace oodb

BENCHMARK_MAIN();
