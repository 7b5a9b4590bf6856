// Plan cache: fingerprint-keyed reuse, literal parameterization with plan
// rebinding, statistics-version invalidation (ANALYZE, index toggles), LRU
// eviction, and concurrent sessions sharing one cache.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace oodb {
namespace {

Session::Options WithCache(std::shared_ptr<PlanCache> cache) {
  Session::Options opts;
  opts.plan_cache = std::move(cache);
  return opts;
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest()
      : db_(MakePaperCatalog(0.02)),
        cache_(std::make_shared<PlanCache>(64)),
        session_(&db_.catalog, WithCache(cache_)) {
    GenOptions gen;
    gen.num_plants = 20;
    auto r = GeneratePaperData(db_, &session_.store(), gen);
    EXPECT_TRUE(r.ok()) << r.status();
  }

  PaperDb db_;
  std::shared_ptr<PlanCache> cache_;
  Session session_;
};

TEST_F(PlanCacheTest, RepeatServedFromCache) {
  const std::string q =
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;";
  auto first = session_.Prepare(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->optimized.stats.plan_cached);
  auto second = session_.Prepare(q);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->optimized.stats.plan_cached);
  EXPECT_EQ(first->PlanText(/*with_costs=*/true),
            second->PlanText(/*with_costs=*/true));
  EXPECT_DOUBLE_EQ(first->optimized.cost.total(),
                   second->optimized.cost.total());
  EXPECT_GE(second->optimized.stats.cache_hits, 1);
}

// With the cache off, Prepare takes exactly the seed optimization path; a
// cache miss must produce the identical plan and cost, and a hit must hand
// the same plan back — checked on all four paper queries.
TEST_F(PlanCacheTest, CacheOffAndOnAgreeOnPaperQueries) {
  Session plain(&db_.catalog, WithCache(nullptr));
  for (const char* q :
       {kQuery1Text, kQuery2Text, kQuery3Text, kQuery4Text}) {
    auto off = plain.Prepare(q);
    ASSERT_TRUE(off.ok()) << off.status();
    EXPECT_FALSE(off->optimized.stats.plan_cached);
    auto miss = session_.Prepare(q);
    ASSERT_TRUE(miss.ok()) << miss.status();
    EXPECT_FALSE(miss->optimized.stats.plan_cached);
    auto hit = session_.Prepare(q);
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_TRUE(hit->optimized.stats.plan_cached) << q;
    EXPECT_EQ(off->PlanText(true), miss->PlanText(true)) << q;
    EXPECT_EQ(off->PlanText(true), hit->PlanText(true)) << q;
    EXPECT_DOUBLE_EQ(off->optimized.cost.total(),
                     miss->optimized.cost.total());
    EXPECT_DOUBLE_EQ(off->optimized.cost.total(),
                     hit->optimized.cost.total());
  }
}

// Equality predicates estimate 1/distinct regardless of the literal, so
// `time == 3` and `time == 5` land in the same selectivity bucket and share
// one cache entry; the served plan must carry the *new* literal and execute
// correctly.
TEST_F(PlanCacheTest, ParameterizedLiteralsShareEntry) {
  auto r3 = session_.Query(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;");
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_FALSE(r3->optimized.stats.plan_cached);
  auto r5 = session_.Query(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 5;");
  ASSERT_TRUE(r5.ok()) << r5.status();
  EXPECT_TRUE(r5->optimized.stats.plan_cached);
  EXPECT_NE(r5->PlanText().find("5"), std::string::npos);
  EXPECT_EQ(r5->PlanText().find("== 3"), std::string::npos);

  // Rebound plan returns exactly what an uncached session returns.
  Session plain(&db_.catalog, WithCache(nullptr));
  GenOptions gen;
  gen.num_plants = 20;
  ASSERT_TRUE(GeneratePaperData(db_, &plain.store(), gen).ok());
  auto truth = plain.Query(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 5;");
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_GT(truth->exec.rows, 0);
  EXPECT_EQ(r5->exec.rows, truth->exec.rows);
  EXPECT_EQ(r5->rows(), truth->rows());
}

// Literal parameterization can be disabled: each literal then gets its own
// entry and the second query is a miss.
TEST_F(PlanCacheTest, ParameterizationOffKeysOnExactLiterals) {
  Session::Options opts = WithCache(cache_);
  opts.optimizer.plan_cache_parameterize = false;
  Session exact(&db_.catalog, opts);
  auto r3 = exact.Prepare(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;");
  ASSERT_TRUE(r3.ok()) << r3.status();
  auto r5 = exact.Prepare(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 5;");
  ASSERT_TRUE(r5.ok()) << r5.status();
  EXPECT_FALSE(r5->optimized.stats.plan_cached);
  auto again = exact.Prepare(
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->optimized.stats.plan_cached);
}

// ANALYZE bumps the catalog stats_version; the next probe must drop the
// stale entry and re-optimize rather than serve a plan costed under old
// statistics.
TEST_F(PlanCacheTest, AnalyzeInvalidatesCachedPlans) {
  const std::string q =
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;";
  ASSERT_TRUE(session_.Prepare(q).ok());
  auto hit = session_.Prepare(q);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->optimized.stats.plan_cached);

  const uint64_t before = db_.catalog.stats_version();
  ASSERT_TRUE(session_.Analyze().ok());
  EXPECT_GT(db_.catalog.stats_version(), before);

  // Never a stale plan: either ANALYZE moved the predicate's selectivity
  // bucket (the fingerprint itself changes — a plain miss) or it did not
  // (the version mismatch reclaims the entry); both re-optimize.
  auto after = session_.Prepare(q);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->optimized.stats.plan_cached);

  // The freshly re-optimized plan is cached under the new version.
  auto rehit = session_.Prepare(q);
  ASSERT_TRUE(rehit.ok()) << rehit.status();
  EXPECT_TRUE(rehit->optimized.stats.plan_cached);
}

// A statistics bump that does not move the query's own selectivity bucket
// (here: a cardinality change on an unrelated collection) leaves the
// fingerprint intact — the probe must meet the stale entry, reclaim it, and
// count an invalidation.
TEST_F(PlanCacheTest, VersionBumpReclaimsStaleEntryOnContact) {
  const std::string q =
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;";
  ASSERT_TRUE(session_.Prepare(q).ok());
  ASSERT_TRUE(session_.Prepare(q)->optimized.stats.plan_cached);

  CollectionId cities = CollectionId::Set("Cities", db_.city);
  int64_t card = (*db_.catalog.FindCollection(cities))->cardinality;
  ASSERT_TRUE(db_.catalog.SetCardinality(cities, card + 1).ok());

  auto after = session_.Prepare(q);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->optimized.stats.plan_cached);
  EXPECT_GE(cache_->stats().invalidations, 1);
  EXPECT_TRUE(session_.Prepare(q)->optimized.stats.plan_cached);
}

// Disabling an index must invalidate plans that used it (the Index Scan
// disappears); re-enabling invalidates again and the Index Scan returns.
TEST_F(PlanCacheTest, IndexToggleInvalidatesCachedPlans) {
  const std::string q =
      "SELECT c.name FROM City c IN Cities WHERE c.mayor.name == \"Joe\";";
  auto indexed = session_.Prepare(q);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_NE(indexed->PlanText().find("Index Scan"), std::string::npos);
  ASSERT_TRUE(session_.Prepare(q)->optimized.stats.plan_cached);

  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxCitiesMayorName, false).ok());
  auto without = session_.Prepare(q);
  ASSERT_TRUE(without.ok()) << without.status();
  EXPECT_FALSE(without->optimized.stats.plan_cached);
  // (No invalidation-counter assertion here: toggling the index also moves
  // the equality predicate's selectivity estimate, so the fingerprint
  // itself changes and the stale entry is simply never probed again.)
  EXPECT_EQ(without->PlanText().find("Index Scan"), std::string::npos);

  ASSERT_TRUE(db_.catalog.SetIndexEnabled(kIdxCitiesMayorName, true).ok());
  auto with = session_.Prepare(q);
  ASSERT_TRUE(with.ok()) << with.status();
  EXPECT_FALSE(with->optimized.stats.plan_cached);
  EXPECT_NE(with->PlanText().find("Index Scan"), std::string::npos);
}

TEST_F(PlanCacheTest, LruEvictsBeyondCapacity) {
  auto tiny = std::make_shared<PlanCache>(1);
  Session s(&db_.catalog, WithCache(tiny));
  const std::string q1 =
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;";
  const std::string q2 =
      "SELECT d.name FROM Department d IN Department WHERE d.floor == 3;";
  ASSERT_TRUE(s.Prepare(q1).ok());
  ASSERT_TRUE(s.Prepare(q2).ok());
  EXPECT_GE(tiny->stats().evictions, 1);
  EXPECT_LE(tiny->stats().entries, 1);
  auto r = s.Prepare(q1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->optimized.stats.plan_cached);

  // A capacity-N cache holds N distinct plans: nothing is evicted until
  // the N+1st, and every one of them is served warm afterwards.
  const std::vector<std::string> distinct = {
      std::string(kQuery1Text),
      std::string(kQuery2Text),
      std::string(kQuery3Text),
      std::string(kQuery4Text),
      q1,
      q2,
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;",
      "SELECT e.name FROM Employee e IN Employees;",
  };
  auto eight = std::make_shared<PlanCache>(distinct.size());
  Session full(&db_.catalog, WithCache(eight));
  for (const std::string& q : distinct) ASSERT_TRUE(full.Prepare(q).ok()) << q;
  EXPECT_EQ(eight->stats().entries, static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(eight->stats().evictions, 0);
  for (const std::string& q : distinct) {
    auto warm = full.Prepare(q);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_TRUE(warm->optimized.stats.plan_cached) << q;
  }

  // Eviction takes the least recently used entry: the hit on q1 makes q2
  // the oldest, so inserting q3 evicts q2 and q1 stays warm.
  const std::string q3 = distinct[6];
  auto two = std::make_shared<PlanCache>(2);
  Session lru(&db_.catalog, WithCache(two));
  ASSERT_TRUE(lru.Prepare(q1).ok());
  ASSERT_TRUE(lru.Prepare(q2).ok());
  auto hit = lru.Prepare(q1);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->optimized.stats.plan_cached);
  ASSERT_TRUE(lru.Prepare(q3).ok());
  EXPECT_EQ(two->stats().evictions, 1);
  auto kept = lru.Prepare(q1);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(kept->optimized.stats.plan_cached);
  auto evicted = lru.Prepare(q2);
  ASSERT_TRUE(evicted.ok()) << evicted.status();
  EXPECT_FALSE(evicted->optimized.stats.plan_cached);
}

TEST_F(PlanCacheTest, ExplainAnnotatesCachedPlan) {
  const std::string q =
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;";
  auto cold = session_.Explain(q);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->find("plan: cached"), std::string::npos);
  EXPECT_NE(cold->find("plan cache:"), std::string::npos);
  auto warm = session_.Explain(q);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_NE(warm->find("plan: cached"), std::string::npos);
  EXPECT_NE(warm->find("hits="), std::string::npos);
}

// Four sessions on four threads hammering one shared cache over a mix of
// queries (repeats + literal variants). Exercises the cache lock paths:
// concurrent hits, insert races on the same key, evictions.
TEST_F(PlanCacheTest, ConcurrentSessionsShareCacheSafely) {
  const std::vector<std::string> mix = {
      std::string(kQuery1Text),
      std::string(kQuery2Text),
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;",
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 5;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 45;",
  };
  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session local(&db_.catalog, WithCache(cache_));
      for (int i = 0; i < kIters; ++i) {
        const std::string& q = mix[(i + t) % mix.size()];
        auto r = local.Prepare(q);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats s = cache_->stats();
  EXPECT_GE(s.hits, kThreads);  // repeats must have been served warm
  EXPECT_EQ(s.hits + s.misses,
            static_cast<int64_t>(kThreads) * kIters);
}

// The heavy concurrency stress: 16 threads hammer one shared cache with a
// mixed workload — warm repeats, cold keys, and concurrent ANALYZE-style
// stats_version bumps that invalidate entries mid-flight — so every cache
// transition (hit with recency refresh, stale-entry reclamation, insert,
// LRU eviction) races every other. CI repeats exactly
// this binary under ThreadSanitizer; in Debug the lock-rank registry checks
// every acquisition the workload makes. Correctness bar: no failed Prepare,
// accounting that adds up, the bump storm forced stale-entry reclamation,
// and after a final bump no survivor entry is served stale.
TEST_F(PlanCacheTest, StressManyThreadsWithInvalidationStorm) {
  const std::vector<std::string> mix = {
      std::string(kQuery1Text),
      std::string(kQuery2Text),
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;",
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 5;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 45;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 50;",
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 7;",
  };
  constexpr int kThreads = 16;
  constexpr int kIters = 60;
  constexpr int kBumpEvery = 16;  // ~3-4 bumps per thread per run
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session local(&db_.catalog, WithCache(cache_));
      for (int i = 0; i < kIters; ++i) {
        if ((i + t) % kBumpEvery == 0) {
          // The ANALYZE shape: catalog statistics move while other threads
          // are mid-Prepare. Every cached entry optimized under the old
          // version must be invalidated on its next contact (Lookup serves
          // only exact version matches, so a stale serve is structurally
          // impossible — TSan's job here is the counter and map races).
          db_.catalog.BumpStatsVersion();
        }
        const std::string& q = mix[(i * 7 + t) % mix.size()];
        auto r = local.Prepare(q);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats s = cache_->stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<int64_t>(kThreads) * kIters);
  // The bump storm must actually have forced stale-entry reclamation, and
  // warm repeats between bumps must still have been served.
  EXPECT_GE(s.invalidations, 1);
  EXPECT_GE(s.hits, 1);

  // After one final bump every surviving entry is stale: the next touch
  // must re-optimize (never serve the pre-bump plan), and only then is the
  // query warm again under the new version. One query suffices —
  // parameterization makes several mix entries share a cache key, so a
  // per-query sweep would see legitimate warm hits from its own earlier
  // iterations.
  db_.catalog.BumpStatsVersion();
  auto cold = session_.Prepare(mix[0]);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->optimized.stats.plan_cached);
  auto warm = session_.Prepare(mix[0]);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->optimized.stats.plan_cached);
}

// Regression: the catalog copy/move operations used to copy stats_version_
// verbatim, so a session over a copied catalog could collide with the
// original's version numbers and be served the original's cached plans as
// false hits. Copies must start a fresh, disjoint version space — and stay
// disjoint under equal numbers of subsequent bumps.
TEST(CatalogVersionSpaceTest, CopyAndMoveReseedStatsVersion) {
  PaperDb db = MakePaperCatalog(0.02);
  Catalog copy(db.catalog);
  EXPECT_NE(copy.stats_version(), db.catalog.stats_version());
  for (int i = 0; i < 4; ++i) {
    copy.BumpStatsVersion();
    db.catalog.BumpStatsVersion();
    EXPECT_NE(copy.stats_version(), db.catalog.stats_version());
  }
  Catalog assigned;
  assigned = db.catalog;
  EXPECT_NE(assigned.stats_version(), db.catalog.stats_version());
  EXPECT_NE(assigned.stats_version(), copy.stats_version());
  Catalog moved(std::move(assigned));
  EXPECT_NE(moved.stats_version(), db.catalog.stats_version());
  EXPECT_NE(moved.stats_version(), copy.stats_version());
}

// End-to-end shape of the same regression: two sessions sharing one cache
// but backed by *different* catalog instances (original and copy) must
// never serve each other's entries, even though fingerprints agree.
TEST_F(PlanCacheTest, CatalogCopyNeverHitsOriginalsEntries) {
  const std::string q =
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;";
  ASSERT_TRUE(session_.Prepare(q).ok());
  ASSERT_TRUE(session_.Prepare(q)->optimized.stats.plan_cached);

  Catalog copy(db_.catalog);
  Session twin(&copy, WithCache(cache_));
  auto cold = twin.Prepare(q);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->optimized.stats.plan_cached);
  // The copy caches under its own version space and warms up normally.
  EXPECT_TRUE(twin.Prepare(q)->optimized.stats.plan_cached);
  // The original's entry is untouched by the twin's traffic.
  EXPECT_TRUE(session_.Prepare(q)->optimized.stats.plan_cached);
}

// Regression: ANALYZE used to defer its single version bump to the end of
// the statistics refresh, leaving a window where a concurrent Prepare could
// cache a plan costed against partially-updated statistics under the
// pre-ANALYZE version — and have it served until the trailing bump landed.
// The fix brackets the mutation window with a leading and a trailing bump,
// so one ANALYZE moves the version by at least two.
TEST_F(PlanCacheTest, AnalyzeBracketsMutationWindow) {
  const uint64_t before = db_.catalog.stats_version();
  ASSERT_TRUE(session_.Analyze().ok());
  EXPECT_GE(db_.catalog.stats_version(), before + 2);
}

// The concurrent shape of the bracket discipline, TSan-clean by design: a
// mutator thread continuously applies bumping statistics writes to Cities
// (SetCardinality bumps the version before any reader can observe the new
// value through a cache key) while preparer threads hammer the shared cache
// with Tasks/Employees queries. The catalog has no internal lock around
// collection statistics, so the races under test are exactly the version
// atomics and the cache's lock transitions — after the storm, no entry may
// be served stale.
TEST_F(PlanCacheTest, ThreadedBumpingMutatorsNeverYieldStaleServes) {
  const std::vector<std::string> mix = {
      "SELECT t.name FROM Task t IN Tasks WHERE t.time == 3;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 40;",
      "SELECT e.name FROM Employee e IN Employees WHERE e.age >= 45;",
      "SELECT t.name FROM Task t IN Tasks WHERE t.time >= 7;",
  };
  constexpr int kPreparers = 6;
  constexpr int kIters = 50;
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  CollectionId cities = CollectionId::Set("Cities", db_.city);
  const int64_t base = (*db_.catalog.FindCollection(cities))->cardinality;
  std::thread mutator([&] {
    int64_t v = base;
    while (!done.load(std::memory_order_relaxed)) {
      ++v;
      if (!db_.catalog.SetCardinality(cities, v).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kPreparers);
  for (int t = 0; t < kPreparers; ++t) {
    threads.emplace_back([&, t] {
      Session local(&db_.catalog, WithCache(cache_));
      for (int i = 0; i < kIters; ++i) {
        auto r = local.Prepare(mix[(i + t) % mix.size()]);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  mutator.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats s = cache_->stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<int64_t>(kPreparers) * kIters);
  // With the mutator quiet, the usual freshness discipline holds: one more
  // bump makes every survivor stale, then the re-optimized entry is warm.
  db_.catalog.BumpStatsVersion();
  auto cold = session_.Prepare(mix[0]);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->optimized.stats.plan_cached);
  EXPECT_TRUE(session_.Prepare(mix[0])->optimized.stats.plan_cached);
  ASSERT_TRUE(db_.catalog.SetCardinality(cities, base).ok());
}

// Regression for the selectivity-bucket boundary: the bucket used to come
// from llround(log2(sel) * 2), whose libm last-ulp jitter made literals
// sitting exactly on a half-octave edge (powers of two and their sqrt(1/2)
// multiples) bucket differently across platforms — and llround *rounds*, so
// selectivities up to 1.19x apart on opposite sides of an edge shared a
// bucket while same-edge neighbors split. The frexp-based bucket has floor
// semantics: bucket k covers [2^(k/2), 2^((k+1)/2)) exactly.
TEST(SelectivityBucketBoundaryTest, EdgeLiteralsBucketByFloorSemantics) {
  Catalog catalog;
  Schema& s = catalog.schema();
  TypeId thing = s.AddType("Thing", 16);
  FieldDef v;
  v.name = "v";
  v.kind = FieldKind::kInt;
  v.distinct_values = 17;
  v.min_value = 0;
  v.max_value = 16;  // range width 16: `x.v >= lit` interpolates to lit/16ths
  s.mutable_type(thing).AddField(v);
  ASSERT_TRUE(catalog.AddSet("Things", thing, 100).ok());

  auto fp = [&](int lit) {
    QueryContext ctx;
    ctx.catalog = &catalog;
    auto logical = ParseAndSimplify("SELECT x.v FROM Thing x IN Things "
                                    "WHERE x.v >= " + std::to_string(lit) +
                                    ";", &ctx);
    EXPECT_TRUE(logical.ok()) << logical.status();
    return FingerprintQuery(**logical, ctx, /*parameterize=*/true).fp;
  };

  // sel(8) = 1 - 8/16 = 0.5 = 2^-1, exactly on a half-octave edge: it
  // starts bucket -2 = [0.5, 0.7071). sel(5) = 0.6875 lies inside the same
  // bucket; sel(9) = 0.4375 lies below the edge in bucket -3. The old
  // rounding bucket put 0.4375 (log2*2 = -2.39, rounds to -2) WITH 0.5 and
  // was one libm ulp away from splitting 0.5 itself.
  EXPECT_EQ(fp(8), fp(5));
  EXPECT_NE(fp(8), fp(9));
  // sel(0) clamps to 1.0 = 2^0 — the other exact edge; bucket 0 with
  // nothing above it in (1.0, 1.19) reachable here, so it only must differ
  // from bucket -2.
  EXPECT_NE(fp(0), fp(8));
  // Determinism across repeated evaluation of the same edge literal.
  EXPECT_EQ(fp(8), fp(8));
}

}  // namespace
}  // namespace oodb
