// Plan-cache throughput: K concurrent sessions replaying a zipfian mix of
// the paper's queries (plus literal variants) over one shared catalog and
// one shared plan cache. The claim under test: warm repeated-query planning
// is >= 10x the throughput of cold optimization, because the dominant lever
// for repeated traffic is not a faster search but *not searching at all*.
//
// BM_PlanColdVsWarm reports the single-thread speedup directly as the
// `warm_speedup` counter; the threaded benchmarks show the concurrent
// scaling of the single-lock cache vs. per-call optimization.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/oodb.h"
#include "src/workloads/paper_queries.h"

namespace oodb {
namespace {

PaperDb& Db() {
  static PaperDb db = MakePaperCatalog();
  return db;
}

/// The replay mix: the four paper queries plus parameterized literal
/// variants (which share cache entries through fingerprint
/// parameterization) and the wider join from bench_opt_perf.
const std::vector<std::string>& WorkloadQueries() {
  static const std::vector<std::string> queries = [] {
    std::vector<std::string> q = {kQuery1Text, kQuery2Text, kQuery3Text,
                                  kQuery4Text};
    for (int age : {30, 35, 40, 45}) {
      q.push_back(
          "SELECT e.name FROM Employee e IN Employees WHERE e.age >= " +
          std::to_string(age) + ";");
    }
    for (int t : {50, 100, 150}) {
      q.push_back(
          "SELECT t.name FROM Task t IN Tasks WHERE t.time == " +
          std::to_string(t) + ";");
    }
    q.push_back(
        "SELECT e.name, d.name, t.name "
        "FROM Employee e IN Employees, Department d IN Department, "
        "     Task t IN Tasks, Employee m IN t.team_members "
        "WHERE e.dept == d && d.floor == 3 && e.age >= 32 && "
        "      t.time == 100 && m.name == e.name;");
    return q;
  }();
  return queries;
}

/// Zipf(s=1) rank weights over the workload: query 0 dominates, the tail
/// still recurs — the shape of real repeated traffic.
int ZipfPick(Rng& rng, int n) {
  static const std::vector<double>& cdf = *[] {
    auto* c = new std::vector<double>;
    double total = 0.0;
    for (int i = 0; i < 64; ++i) {
      total += 1.0 / (i + 1);
      c->push_back(total);
    }
    for (double& v : *c) v /= total;
    return c;
  }();
  double u = rng.NextDouble() * cdf[n - 1];
  for (int i = 0; i < n; ++i) {
    if (u <= cdf[i]) return i;
  }
  return n - 1;
}

Session::Options CacheOptions(std::shared_ptr<PlanCache> cache) {
  Session::Options opts;
  opts.plan_cache = std::move(cache);
  return opts;
}

void ReplayMix(benchmark::State& state, std::shared_ptr<PlanCache> cache) {
  Session session(&Db().catalog, CacheOptions(std::move(cache)));
  const std::vector<std::string>& queries = WorkloadQueries();
  Rng rng(0xbadc0ffee0ddf00dull + state.thread_index());
  int64_t prepared = 0;
  for (auto _ : state) {
    const std::string& q =
        queries[ZipfPick(rng, static_cast<int>(queries.size()))];
    auto r = session.Prepare(q);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
    ++prepared;
  }
  state.SetItemsProcessed(prepared);
}

/// Cold path: no cache — every Prepare runs the full Volcano search (the
/// seed behavior, bit-identical plans).
void BM_ZipfMixCold(benchmark::State& state) { ReplayMix(state, nullptr); }
BENCHMARK(BM_ZipfMixCold)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

/// Warm path: all threads share one cache; after the first pass the
/// mix is served from it.
void BM_ZipfMixWarm(benchmark::State& state) {
  static std::shared_ptr<PlanCache> cache =
      std::make_shared<PlanCache>(256);
  ReplayMix(state, cache);
  if (state.thread_index() == 0) {
    PlanCacheStats s = cache->stats();
    state.counters["hit_rate"] =
        s.hits + s.misses == 0
            ? 0.0
            : static_cast<double>(s.hits) /
                  static_cast<double>(s.hits + s.misses);
  }
}
BENCHMARK(BM_ZipfMixWarm)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

/// The acceptance claim, measured in one place: time N warm repeats of each
/// paper query against N cold optimizations and report the ratio.
void BM_PlanColdVsWarm(benchmark::State& state) {
  auto cache = std::make_shared<PlanCache>(64);
  Session warm(&Db().catalog, CacheOptions(cache));
  Session cold(&Db().catalog, CacheOptions(nullptr));
  const std::vector<std::string>& queries = WorkloadQueries();
  // Populate the cache outside the timed region.
  for (const std::string& q : queries) {
    auto r = warm.Prepare(q);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  double cold_s = 0.0, warm_s = 0.0;
  for (auto _ : state) {
    for (const std::string& q : queries) {
      auto t0 = std::chrono::steady_clock::now();
      auto rc = cold.Prepare(q);
      auto t1 = std::chrono::steady_clock::now();
      auto rw = warm.Prepare(q);
      auto t2 = std::chrono::steady_clock::now();
      if (!rc.ok() || !rw.ok()) state.SkipWithError("prepare failed");
      if (!rw->optimized.stats.plan_cached) {
        state.SkipWithError("warm prepare missed the cache");
      }
      cold_s += std::chrono::duration<double>(t1 - t0).count();
      warm_s += std::chrono::duration<double>(t2 - t1).count();
      benchmark::DoNotOptimize(rc);
      benchmark::DoNotOptimize(rw);
    }
  }
  state.counters["warm_speedup"] = warm_s > 0 ? cold_s / warm_s : 0.0;
}
BENCHMARK(BM_PlanColdVsWarm);

}  // namespace
}  // namespace oodb

BENCHMARK_MAIN();
