// Adversarial stale-statistics workload: the drift-adaptation gate.
//
// The catalog's statistics for the OO7 atomic-part library are stale — they
// date from when the library was nearly empty (cardinality 1), while the
// store actually holds tens of thousands of parts, and the query's
// correlated x/y range predicates compound the misestimate. Under those
// statistics the static optimizer picks a plan that is catastrophic at the
// real cardinality (a tiny-outer join strategy re-scanning the inner side
// per row); the adaptive session executes the same initial plan, trips the
// drift check at the first pipeline breaker, aborts the suffix, re-plans
// with the observed cardinalities, and finishes on a sane plan.
//
// The claim under test (deterministic simulated seconds, not wall clock):
// end-to-end executed simulated time of the adaptive session — *including*
// the aborted attempt's sunk work — is >= 2x better than the static
// session's, with identical results.
//
// Results are written to BENCH_adaptive.json ({"adaptive": [{"mode": ...,
// "sim_s": ...}, ...], "speedup_adaptive": S, "replans": N}) for the
// regression gate in scripts/check_bench_regression.py.
#include <cstdio>
#include <memory>
#include <string>

#include "src/oodb.h"
#include "src/workloads/oo7.h"

namespace oodb {
namespace {

Oo7Options BenchConfig() {
  Oo7Options o;
  o.num_composite_parts = 200;
  o.atomic_per_composite = 60;  // 12000 atomic parts actually stored
  o.complex_per_module = 4;
  o.base_per_complex = 8;
  o.num_build_dates = 10;
  return o;
}

/// Join + order: the breaker (Sort input / hash-join build) gives the
/// adaptive session its abort point, and the join-strategy choice is what
/// the stale cardinality poisons.
constexpr const char* kAdversarial =
    "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
    "CompositePart p IN CompositeParts "
    "WHERE a.partOf == p && a.x > 100 && a.y < 900 && p.buildDate >= 2 "
    "ORDER BY a.id;";

struct RunResult {
  double sim_s = 0.0;
  int64_t rows = 0;
  int replans = 0;
  int attempts = 0;
};

/// Executes the adversarial query in a fresh session over its own store,
/// summing every attempt's simulated seconds — aborted work included. (Each
/// attempt starts a cold simulated clock, so a clock delta around the
/// statement would hold only its last attempt.)
bool RunMode(Oo7Db* db, const Oo7Options& o, const Session::Options& opts,
             RunResult* out) {
  Session session(&db->catalog, opts);
  Status populated = PopulateOo7(db, &session.store(), o);
  if (!populated.ok()) {
    std::fprintf(stderr, "populate: %s\n", populated.ToString().c_str());
    return false;
  }
  auto r = session.Query(kAdversarial);
  if (!r.ok()) {
    std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
    return false;
  }
  for (const ExecAttempt& a : r->attempts) out->sim_s += a.sim_s;
  out->rows = r->exec.rows;
  out->replans = r->replans;
  out->attempts = static_cast<int>(r->attempts.size());
  return true;
}

int Main() {
  Oo7Options o = BenchConfig();
  std::unique_ptr<Oo7Db> db = MakeOo7Catalog(o);

  // Go stale: the atomic-part statistics predate the bulk load.
  CollectionId atomics = CollectionId::Set("AtomicParts", db->atomic_part);
  Status stale = db->catalog.SetCardinality(atomics, 1);
  if (!stale.ok()) {
    std::fprintf(stderr, "perturb: %s\n", stale.ToString().c_str());
    return 1;
  }

  Session::Options static_opts;  // the seed path: believes the catalog
  RunResult st;
  if (!RunMode(db.get(), o, static_opts, &st)) return 1;

  Session::Options adaptive_opts;
  adaptive_opts.adaptive.replan_drift_threshold = 4.0;
  RunResult ad;
  if (!RunMode(db.get(), o, adaptive_opts, &ad)) return 1;

  std::printf("adversarial stale-stats join (OO7, %d atomic parts, "
              "catalog says 1):\n",
              o.num_composite_parts * o.atomic_per_composite);
  std::printf("  static   : sim %10.3fs  rows %lld  attempts %d\n",
              st.sim_s, static_cast<long long>(st.rows), st.attempts);
  std::printf("  adaptive : sim %10.3fs  rows %lld  attempts %d  "
              "replans %d\n",
              ad.sim_s, static_cast<long long>(ad.rows), ad.attempts,
              ad.replans);
  double speedup = ad.sim_s > 0.0 ? st.sim_s / ad.sim_s : 0.0;
  std::printf("  speedup adaptive vs static (simulated): %.2fx\n", speedup);

  std::FILE* json = std::fopen("BENCH_adaptive.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_adaptive.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"workload\": \"oo7-stale-stats-join-orderby\",\n");
  std::fprintf(json, "  \"adaptive\": [\n");
  std::fprintf(json,
               "    {\"mode\": \"static\", \"sim_s\": %.6f, \"rows\": %lld},\n",
               st.sim_s, static_cast<long long>(st.rows));
  std::fprintf(json,
               "    {\"mode\": \"adaptive\", \"sim_s\": %.6f, "
               "\"rows\": %lld}\n",
               ad.sim_s, static_cast<long long>(ad.rows));
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"speedup_adaptive\": %.2f,\n", speedup);
  std::fprintf(json, "  \"replans\": %d\n}\n", ad.replans);
  std::fclose(json);
  std::printf("wrote BENCH_adaptive.json\n");

  // Gates: identical results, a real mid-query re-plan, and the 2x claim.
  if (ad.rows != st.rows) {
    std::fprintf(stderr, "FAIL: adaptive rows %lld != static rows %lld\n",
                 static_cast<long long>(ad.rows),
                 static_cast<long long>(st.rows));
    return 2;
  }
  if (ad.replans < 1) {
    std::fprintf(stderr, "FAIL: adaptive session never re-planned\n");
    return 2;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: adaptive speedup %.2fx < 2x\n", speedup);
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace oodb

int main() { return oodb::Main(); }
